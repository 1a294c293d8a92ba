type direction = In | Out

type port = { port_name : string; dir : direction; width : int }

let p name dir width = { port_name = name; dir; width }

let vhdl_type width =
  if width = 1 then "std_logic"
  else Printf.sprintf "std_logic_vector(%d downto 0)" (width - 1)

let port_to_string port =
  Printf.sprintf "%s : %s %s" port.port_name
    (match port.dir with In -> "in" | Out -> "out")
    (vhdl_type port.width)

let has_op cfg op = List.mem op cfg.Config.ops_used

(* The pointer step that completes a fused sequential access, from
   Table 1: a read steps in the kind's sequential-input direction and
   a write in its sequential-output direction.  A stack is read
   forward and written backward, so its pop is read + inc and its push
   write + dec; the other sequential kinds step forward both ways. *)
let step = function
  | Some Metamodel.Backward -> Metamodel.Dec
  | Some (Metamodel.Forward | Metamodel.Both) | None -> Metamodel.Inc

let read_step cfg =
  step (Metamodel.capabilities cfg.Config.kind).Metamodel.sequential_input

let write_step cfg =
  step (Metamodel.capabilities cfg.Config.kind).Metamodel.sequential_output

(* Method strobes exposed by each container kind, derived from the
   operations kept after pruning. Sequential read is the fused pop
   (read + its step); sequential write is the fused push. *)
let method_names cfg =
  let open Metamodel in
  let seq_read = has_op cfg Read && has_op cfg (read_step cfg) in
  let seq_write = has_op cfg Write && has_op cfg (write_step cfg) in
  match cfg.Config.kind with
  | Read_buffer -> (if seq_read then [ "pop" ] else []) @ [ "empty"; "size" ]
  | Write_buffer -> (if seq_write then [ "push" ] else []) @ [ "full"; "size" ]
  | Queue | Stack ->
    (if seq_write then [ "push" ] else [])
    @ (if seq_read then [ "pop" ] else [])
    @ [ "empty"; "full"; "size" ]
  | Vector ->
    (if has_op cfg Read then [ "read" ] else [])
    @ (if has_op cfg Write then [ "write" ] else [])
    @ [ "size" ]
  | Assoc_array ->
    (if has_op cfg Read then [ "lookup" ] else [])
    @ (if has_op cfg Write then [ "insert"; "delete" ] else [])
    @ [ "size" ]

(* Whether the entity declares the method strobe [m] (e.g. "m_pop").
   Every template line that reads a strobe is guarded by this, so a
   pruned entity never references a port it does not declare. *)
let has_method cfg m = List.exists (fun n -> "m_" ^ n = m) (method_names cfg)

let size_width cfg = Hwpat_rtl.Util.bits_to_represent cfg.Config.depth

(* Error outputs of the generated protection hardware (§Config.parity /
   §Config.op_timeout): both are sticky flags raised by the woven-in
   parity checker and handshake watchdog. *)
let protection_ports cfg =
  (if cfg.Config.parity then [ p "err" Out 1 ] else [])
  @
  match cfg.Config.op_timeout with
  | Some _ -> [ p "timeout" Out 1 ]
  | None -> []

(* A read returns one element, except over the 3-line buffer, whose
   read is the 3-pixel column (top & mid & bot). *)
let read_width cfg =
  match cfg.Config.target with
  | Metamodel.Line_buffer3 -> 3 * cfg.Config.elem_width
  | _ -> cfg.Config.elem_width

let functional_ports cfg =
  let open Metamodel in
  let methods = List.map (fun m -> p ("m_" ^ m) In 1) (method_names cfg) in
  let elem = cfg.Config.elem_width in
  let data_in =
    if
      has_op cfg Write
      && cfg.Config.kind <> Read_buffer (* read buffers are source-only *)
    then [ p "a_data" In elem ]
    else []
  in
  let addr_in =
    match cfg.Config.kind with
    | Vector -> [ p "a_index" In cfg.Config.addr_width ]
    | Assoc_array -> [ p "a_key" In cfg.Config.addr_width ]
    | Stack | Queue | Read_buffer | Write_buffer -> []
  in
  let data_out = if has_op cfg Read then [ p "r_data" Out (read_width cfg) ] else [] in
  let found =
    match cfg.Config.kind with Assoc_array -> [ p "r_found" Out 1 ] | _ -> []
  in
  let status =
    [ p "r_empty" Out 1; p "r_full" Out 1; p "r_size" Out (size_width cfg) ]
  in
  let ack = [ p "r_ack" Out 1 ] in
  methods @ data_in @ addr_in @ data_out @ found @ status @ ack
  @ protection_ports cfg

let implementation_ports cfg =
  let bus = cfg.Config.bus_width in
  let addr = cfg.Config.addr_width in
  match cfg.Config.target with
  | Metamodel.Fifo_core ->
    [
      p "p_empty" In 1;
      p "p_full" In 1;
      p "p_read" Out 1;
      p "p_write" Out 1;
      p "p_din" Out bus;
      p "p_data" In bus;
    ]
  | Metamodel.Lifo_core ->
    [
      p "p_empty" In 1;
      p "p_full" In 1;
      p "p_push" Out 1;
      p "p_pop" Out 1;
      p "p_din" Out bus;
      p "p_data" In bus;
    ]
  | Metamodel.Block_ram ->
    [
      p "p_addr" Out addr;
      p "p_we" Out 1;
      p "p_wdata" Out bus;
      p "p_rdata" In bus;
    ]
  | Metamodel.Ext_sram ->
    [
      p "p_addr" Out addr;
      p "p_data" In bus;
      p "p_wdata" Out bus;
      p "p_we" Out 1;
      p "req" Out 1;
      p "ack" In 1;
    ]
  | Metamodel.Line_buffer3 ->
    (* The on-chip line buffer holds whole pixels, whatever the bus. *)
    let px = cfg.Config.elem_width in
    [
      p "p_top" In px;
      p "p_mid" In px;
      p "p_bot" In px;
      p "p_valid" In 1;
      p "p_advance" Out 1;
    ]

let needs_clock cfg =
  match cfg.Config.target with
  | Metamodel.Fifo_core | Metamodel.Lifo_core | Metamodel.Line_buffer3 ->
    Config.words_per_element cfg > 1
  | Metamodel.Block_ram | Metamodel.Ext_sram -> true

let section buf title = Buffer.add_string buf (Printf.sprintf "    -- %s\n" title)

let container_entity cfg =
  let buf = Buffer.create 1024 in
  let name = Config.entity_name cfg in
  Buffer.add_string buf (Printf.sprintf "entity %s is\n  port (\n" name);
  let clocked = needs_clock cfg in
  if clocked then Buffer.add_string buf "    clk : in std_logic;\n";
  section buf "methods";
  let f_ports = functional_ports cfg in
  let i_ports = implementation_ports cfg in
  let params_marked = ref false in
  List.iter
    (fun port ->
      if port.dir = Out && not !params_marked then begin
        params_marked := true;
        section buf "params"
      end;
      Buffer.add_string buf (Printf.sprintf "    %s;\n" (port_to_string port)))
    f_ports;
  section buf "implementation interface";
  let n_i = List.length i_ports in
  List.iteri
    (fun i port ->
      Buffer.add_string buf
        (Printf.sprintf "    %s%s\n" (port_to_string port)
           (if i = n_i - 1 then "" else ";")))
    i_ports;
  Buffer.add_string buf (Printf.sprintf "  );\nend %s;\n" name);
  Buffer.contents buf

(* Architectures. The FIFO/LIFO wrappers are pure renaming, "hardly any
   logic" as the paper notes; the RAM targets carry the little FSM with
   begin/end pointer registers. *)

let arch_header name = Printf.sprintf "architecture generated of %s is\n" name

(* Method strobes used by the RAM-backed architectures, per kind. *)
let read_method cfg =
  match cfg.Config.kind with
  | Metamodel.Vector -> "m_read"
  | Metamodel.Assoc_array -> "m_lookup"
  | Metamodel.Stack | Metamodel.Queue | Metamodel.Read_buffer
  | Metamodel.Write_buffer ->
    "m_pop"

let write_method cfg =
  match cfg.Config.kind with
  | Metamodel.Vector -> "m_write"
  | Metamodel.Assoc_array -> "m_insert"
  | Metamodel.Stack | Metamodel.Queue | Metamodel.Read_buffer
  | Metamodel.Write_buffer ->
    "m_push"

let fifo_arch cfg =
  let name = Config.entity_name cfg in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (arch_header name);
  Buffer.add_string buf "begin\n";
  let read_sig, write_sig =
    match cfg.Config.target with
    | Metamodel.Lifo_core -> ("p_pop", "p_push")
    | _ -> ("p_read", "p_write")
  in
  let open Metamodel in
  (match cfg.Config.kind with
  | Read_buffer | Queue | Stack ->
    let pop = has_method cfg "m_pop" in
    if pop then Buffer.add_string buf (Printf.sprintf "  %s <= m_pop;\n" read_sig);
    if has_op cfg Read then Buffer.add_string buf "  r_data <= p_data;\n";
    if pop then Buffer.add_string buf "  r_ack <= m_pop and not p_empty;\n"
  | Write_buffer | Vector | Assoc_array -> ());
  (match cfg.Config.kind with
  | Write_buffer | Queue | Stack ->
    if has_method cfg "m_push" then
      Buffer.add_string buf (Printf.sprintf "  %s <= m_push;\n" write_sig);
    if has_op cfg Write then Buffer.add_string buf "  p_din <= a_data;\n"
  | Read_buffer | Vector | Assoc_array -> ());
  Buffer.add_string buf "  r_empty <= p_empty;\n";
  Buffer.add_string buf "  r_full <= p_full;\n";
  Buffer.add_string buf "  r_size <= (others => '0'); -- provided by the core\n";
  Buffer.add_string buf "end generated;\n";
  Buffer.contents buf

(* Protection hardware woven into the RAM-backed architectures. The
   parity checker keeps one parity bit per stored bus word and latches
   a sticky [err] when a read disagrees; the watchdog counts
   unacknowledged request cycles, allows one retry window, then latches
   the sticky [timeout] flag. Mirrors Hwpat_containers.Protect. *)

let storage_words cfg = cfg.Config.depth * Config.words_per_element cfg

let protection_decls cfg buf =
  if cfg.Config.parity then
    Buffer.add_string buf
      (Printf.sprintf
         "  -- protection: one parity bit per stored word\n\
          \  signal par_wr  : std_logic;\n\
          \  signal par_mem : std_logic_vector(%d downto 0);\n\
          \  signal err_r   : std_logic;\n"
         (storage_words cfg - 1));
  match cfg.Config.op_timeout with
  | Some timeout ->
    Buffer.add_string buf
      (Printf.sprintf
         "  -- protection: watchdog on the memory handshake\n\
          \  signal wd_cnt    : unsigned(%d downto 0);\n\
          \  signal wd_try    : unsigned(1 downto 0);\n\
          \  signal timeout_r : std_logic;\n"
         (Hwpat_rtl.Util.bits_to_represent timeout - 1))
  | None -> ()

let protection_body cfg buf =
  let is_sram = cfg.Config.target = Metamodel.Ext_sram in
  if cfg.Config.parity then begin
    Buffer.add_string buf "  par_wr <= xor p_wdata;\n";
    if is_sram then
      Buffer.add_string buf
        "  process (clk)\n\
         \  begin\n\
         \    if rising_edge(clk) then\n\
         \      if ack = '1' then\n\
         \        if p_we = '1' then\n\
         \          par_mem(to_integer(unsigned(p_addr))) <= par_wr;\n\
         \        elsif (xor p_data) /= par_mem(to_integer(unsigned(p_addr))) then\n\
         \          err_r <= '1';\n\
         \        end if;\n\
         \      end if;\n\
         \    end if;\n\
         \  end process;\n"
    else
      Buffer.add_string buf
        "  process (clk)\n\
         \  begin\n\
         \    if rising_edge(clk) then\n\
         \      if p_we = '1' then\n\
         \        par_mem(to_integer(unsigned(p_addr))) <= par_wr;\n\
         \      elsif r_ack = '1' and (xor p_rdata) /= par_mem(to_integer(unsigned(p_addr))) then\n\
         \        err_r <= '1';\n\
         \      end if;\n\
         \    end if;\n\
         \  end process;\n";
    Buffer.add_string buf "  err <= err_r;\n"
  end;
  match cfg.Config.op_timeout with
  | Some timeout ->
    Buffer.add_string buf
      (Printf.sprintf
         "  process (clk)\n\
          \  begin\n\
          \    if rising_edge(clk) then\n\
          \      if req = '1' and ack = '0' then\n\
          \        wd_cnt <= wd_cnt + 1;\n\
          \        if wd_cnt = to_unsigned(%d, wd_cnt'length) then\n\
          \          wd_cnt <= (others => '0');\n\
          \          if wd_try = to_unsigned(1, wd_try'length) then\n\
          \            timeout_r <= '1';\n\
          \            wd_try <= (others => '0');\n\
          \          else\n\
          \            wd_try <= wd_try + 1;\n\
          \          end if;\n\
          \        end if;\n\
          \      else\n\
          \        wd_cnt <= (others => '0');\n\
          \        if ack = '1' then\n\
          \          wd_try <= (others => '0');\n\
          \        end if;\n\
          \      end if;\n\
          \    end if;\n\
          \  end process;\n"
         timeout);
    Buffer.add_string buf "  timeout <= timeout_r;\n"
  | None -> ()

let sram_arch cfg =
  let name = Config.entity_name cfg in
  let words = Config.words_per_element cfg in
  let buf = Buffer.create 2048 in
  Buffer.add_string buf (arch_header name);
  Buffer.add_string buf
    (Printf.sprintf
       "  -- circular buffer over the static RAM: begin/end pointers\n\
        \  signal ptr_begin : unsigned(%d downto 0);\n\
        \  signal ptr_end   : unsigned(%d downto 0);\n\
        \  signal count     : unsigned(%d downto 0);\n"
       (cfg.Config.addr_width - 1) (cfg.Config.addr_width - 1)
       (size_width cfg - 1));
  if words > 1 then
    Buffer.add_string buf
      (Printf.sprintf
         "  -- element is %d bus words wide: word counter for multi-access\n\
          \  signal word_idx : unsigned(%d downto 0);\n\
          \  signal shreg    : std_logic_vector(%d downto 0);\n"
         words
         (Hwpat_rtl.Util.bits_to_represent words - 1)
         (cfg.Config.elem_width - 1));
  Buffer.add_string buf
    "  type state_t is (st_idle, st_access, st_done);\n  signal state : state_t;\n";
  protection_decls cfg buf;
  Buffer.add_string buf "begin\n";
  Buffer.add_string buf
    "  process (clk)\n  begin\n    if rising_edge(clk) then\n      case state is\n";
  Buffer.add_string buf "        when st_idle =>\n";
  let open Metamodel in
  if has_method cfg (read_method cfg) then
    Buffer.add_string buf
      (Printf.sprintf
         "          if %s = '1' and count /= 0 then\n\
       \            req <= '1'; p_we <= '0';\n\
       \            p_addr <= std_logic_vector(ptr_begin);\n\
       \            state <= st_access;\n\
       \          end if;\n" (read_method cfg));
  if has_method cfg (write_method cfg) then
    Buffer.add_string buf
      (Printf.sprintf
         "          if %s = '1' and count /= to_unsigned(%d, count'length) then\n\
       \            req <= '1'; p_we <= '1';\n\
       \            p_addr <= std_logic_vector(ptr_end);\n\
       \            p_wdata <= a_data(p_wdata'range);\n\
       \            state <= st_access;\n\
       \          end if;\n" (write_method cfg) cfg.Config.depth);
  Buffer.add_string buf
    "        when st_access =>\n\
     \          if ack = '1' then\n\
     \            req <= '0';\n";
  if words > 1 then
    Buffer.add_string buf
      "            -- assemble/advance multi-word element\n\
       \            word_idx <= word_idx + 1;\n";
  Buffer.add_string buf
    "            state <= st_done;\n\
     \          end if;\n\
     \        when st_done =>\n\
     \          r_ack <= '1';\n\
     \          state <= st_idle;\n\
     \      end case;\n\
     \    end if;\n\
     \  end process;\n";
  if has_op cfg Read then
    Buffer.add_string buf
      (if words > 1 then
         "  r_data <= p_data & shreg(shreg'high downto p_data'length);\n"
       else "  r_data <= p_data;\n");
  protection_body cfg buf;
  Buffer.add_string buf "end generated;\n";
  Buffer.contents buf

let bram_arch cfg =
  (* Same pointer FSM as SRAM minus the wait-state handshake. *)
  let name = Config.entity_name cfg in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (arch_header name);
  Buffer.add_string buf
    (Printf.sprintf
       "  signal ptr_begin : unsigned(%d downto 0);\n\
        \  signal ptr_end   : unsigned(%d downto 0);\n\
        \  signal count     : unsigned(%d downto 0);\n"
       (cfg.Config.addr_width - 1) (cfg.Config.addr_width - 1)
       (size_width cfg - 1));
  protection_decls cfg buf;
  Buffer.add_string buf "begin\n";
  Buffer.add_string buf
    "  process (clk)\n  begin\n    if rising_edge(clk) then\n";
  let open Metamodel in
  if has_method cfg (read_method cfg) then
    Buffer.add_string buf
      (Printf.sprintf
         "      if %s = '1' and count /= 0 then\n\
       \        p_addr <= std_logic_vector(ptr_begin);\n\
       \        ptr_begin <= ptr_begin + 1;\n\
       \        count <= count - 1;\n\
       \        r_ack <= '1';\n\
       \      end if;\n" (read_method cfg));
  if has_method cfg (write_method cfg) then
    Buffer.add_string buf
      (Printf.sprintf
         "      if %s = '1' then\n\
       \        p_addr <= std_logic_vector(ptr_end);\n\
       \        p_we <= '1';\n\
       \        ptr_end <= ptr_end + 1;\n\
       \        count <= count + 1;\n\
       \      end if;\n" (write_method cfg));
  Buffer.add_string buf "    end if;\n  end process;\n";
  if has_op cfg Read then Buffer.add_string buf "  r_data <= p_rdata;\n";
  protection_body cfg buf;
  Buffer.add_string buf "end generated;\n";
  Buffer.contents buf

let linebuf_arch cfg =
  let name = Config.entity_name cfg in
  Printf.sprintf
    "architecture generated of %s is\nbegin\n\
     \  -- 3-line buffer presents a 3-pixel column per access\n\
     %s%s\
     \  r_ack <= p_valid;\n\
     \  r_empty <= not p_valid;\n\
     \  r_full <= '0';\n\
     \  r_size <= (others => '0');\nend generated;\n"
    name
    (if has_method cfg "m_pop" then "  p_advance <= m_pop;\n" else "")
    (if has_op cfg Metamodel.Read then "  r_data <= p_top & p_mid & p_bot;\n"
     else "")

(* Vector: direct addressing, no pointers. Over block RAM the access
   is single-cycle; over SRAM it rides the req/ack handshake. *)
let vector_arch cfg =
  let name = Config.entity_name cfg in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (arch_header name);
  Buffer.add_string buf "  signal busy : std_logic;\n";
  protection_decls cfg buf;
  Buffer.add_string buf "begin\n";
  Buffer.add_string buf
    "  process (clk)\n  begin\n    if rising_edge(clk) then\n";
  let is_sram = cfg.Config.target = Metamodel.Ext_sram in
  if has_op cfg Read then
    Buffer.add_string buf
      (if is_sram then
         "      if m_read = '1' and busy = '0' then\n\
          \        p_addr <= a_index;\n\
          \        p_we <= '0';\n\
          \        req <= '1';\n\
          \        busy <= '1';\n\
          \      end if;\n\
          \      if ack = '1' then\n\
          \        req <= '0';\n\
          \        busy <= '0';\n\
          \        r_ack <= '1';\n\
          \      end if;\n"
       else
         "      if m_read = '1' then\n\
          \        p_addr <= a_index;\n\
          \        r_ack <= '1';\n\
          \      end if;\n");
  if has_op cfg Write then
    Buffer.add_string buf
      (if is_sram then
         "      if m_write = '1' and busy = '0' then\n\
          \        p_addr <= a_index;\n\
          \        p_wdata <= a_data(p_wdata'range);\n\
          \        p_we <= '1';\n\
          \        req <= '1';\n\
          \        busy <= '1';\n\
          \      end if;\n"
       else
         "      if m_write = '1' then\n\
          \        p_addr <= a_index;\n\
          \        p_wdata <= a_data(p_wdata'range);\n\
          \        p_we <= '1';\n\
          \      end if;\n");
  Buffer.add_string buf "    end if;\n  end process;\n";
  if has_op cfg Read then
    Buffer.add_string buf
      (if is_sram then "  r_data <= p_data;\n" else "  r_data <= p_rdata;\n");
  protection_body cfg buf;
  Buffer.add_string buf "end generated;\n";
  Buffer.contents buf

(* Associative array: hash-probe FSM skeleton (linear probing with
   tombstones, mirroring the signal-level builder). *)
let assoc_arch cfg =
  let name = Config.entity_name cfg in
  let buf = Buffer.create 2048 in
  Buffer.add_string buf (arch_header name);
  Buffer.add_string buf
    (Printf.sprintf
       "  -- slot word: [state(2) | key | value]\n\
        \  type state_t is (st_idle, st_probe, st_store, st_done);\n\
        \  signal state : state_t;\n\
        \  signal probe_addr : unsigned(%d downto 0);\n\
        \  signal probe_cnt  : unsigned(%d downto 0);\n"
       (cfg.Config.addr_width - 1) cfg.Config.addr_width);
  protection_decls cfg buf;
  Buffer.add_string buf "begin\n";
  Buffer.add_string buf
    "  process (clk)\n  begin\n    if rising_edge(clk) then\n      case state is\n";
  Buffer.add_string buf "        when st_idle =>\n";
  (match List.filter (has_method cfg) [ "m_lookup"; "m_insert"; "m_delete" ] with
  | [] -> Buffer.add_string buf "          null; -- every probing method pruned\n"
  | strobes ->
    Buffer.add_string buf
      (Printf.sprintf
         "          if %s then\n\
          \            probe_addr <= unsigned(a_key(probe_addr'range));\n\
          \            probe_cnt <= (others => '0');\n\
          \            state <= st_probe;\n\
          \          end if;\n"
         (String.concat " or " (List.map (fun m -> m ^ " = '1'") strobes))));
  Buffer.add_string buf
    "        when st_probe =>\n\
     \          -- read the slot, compare key / slot state, advance or decide\n\
     \          probe_addr <= probe_addr + 1;\n\
     \          probe_cnt <= probe_cnt + 1;\n\
     \          if probe_cnt = to_unsigned(0, probe_cnt'length) then\n\
     \            state <= st_store;\n\
     \          end if;\n";
  Buffer.add_string buf
    "        when st_store =>\n\
     \          state <= st_done;\n\
     \        when st_done =>\n\
     \          r_ack <= '1';\n\
     \          state <= st_idle;\n      end case;\n    end if;\n  end process;\n";
  if has_op cfg Read then
    Buffer.add_string buf
      (if cfg.Config.target = Metamodel.Ext_sram then "  r_data <= p_data;\n"
       else "  r_data <= p_rdata;\n");
  protection_body cfg buf;
  Buffer.add_string buf "end generated;\n";
  Buffer.contents buf

let container_architecture cfg =
  match (cfg.Config.kind, cfg.Config.target) with
  | Metamodel.Vector, _ -> vector_arch cfg
  | Metamodel.Assoc_array, _ -> assoc_arch cfg
  | _, (Metamodel.Fifo_core | Metamodel.Lifo_core) -> fifo_arch cfg
  | _, Metamodel.Ext_sram -> sram_arch cfg
  | _, Metamodel.Block_ram -> bram_arch cfg
  | _, Metamodel.Line_buffer3 -> linebuf_arch cfg

let libraries =
  "library ieee;\nuse ieee.std_logic_1164.all;\nuse ieee.numeric_std.all;\n\n"

(* Render the pruning decision a config implies: which of the kind's
   operations survive into the generated entity, and which are cut.
   Recorded as span annotations so a trace of a generation run shows
   *why* each entity has the ports it has. *)
let op_list ops = String.concat "," (List.map Metamodel.operation_name ops)

let pruned_ops cfg =
  List.filter
    (fun op -> not (List.mem op cfg.Config.ops_used))
    (Metamodel.operations cfg.Config.kind)

let annotate_pruning trace cfg =
  let module Trace = Hwpat_obs.Trace in
  if Trace.enabled trace then begin
    Trace.annotate trace "ops_kept" (Trace.String (op_list cfg.Config.ops_used));
    Trace.annotate trace "ops_pruned" (Trace.String (op_list (pruned_ops cfg)));
    Trace.annotate trace "methods"
      (Trace.String (String.concat "," (method_names cfg)))
  end

let generate_container ?(trace = Hwpat_obs.Trace.null) cfg =
  let module Trace = Hwpat_obs.Trace in
  Trace.span trace "codegen:container"
    ~args:
      [
        ("entity", Trace.String cfg.Config.instance_name);
        ("kind", Trace.String (Metamodel.container_name cfg.Config.kind));
        ("target", Trace.String (Metamodel.target_name cfg.Config.target));
      ]
  @@ fun () ->
  annotate_pruning trace cfg;
  String.concat "\n" [ libraries ^ container_entity cfg; container_architecture cfg ]

(* Iterators: one metamodel per container kind; for sequential
   containers they are renaming wrappers (no logic), exactly the
   observation the paper makes about them dissolving at synthesis. *)

let iterator_ports cfg =
  let open Metamodel in
  let op_ports =
    List.concat_map
      (fun op ->
        match op with
        | Inc -> [ p "it_inc" In 1 ]
        | Dec -> [ p "it_dec" In 1 ]
        | Read -> [ p "it_read" In 1; p "it_data" Out (read_width cfg) ]
        | Write -> [ p "it_write" In 1; p "it_wdata" In cfg.Config.elem_width ]
        | Index -> [ p "it_index" In 1; p "it_pos" In cfg.Config.addr_width ])
      cfg.Config.ops_used
  in
  op_ports @ [ p "it_ack" Out 1 ]

let container_facing_ports cfg =
  (* Mirror of the container's functional interface, seen from the
     iterator. *)
  List.map
    (fun port ->
      {
        port with
        port_name = "c_" ^ port.port_name;
        dir = (match port.dir with In -> Out | Out -> In);
      })
    (functional_ports cfg)

let iterator_entity cfg =
  let buf = Buffer.create 1024 in
  let name = Printf.sprintf "%s_it" cfg.Config.instance_name in
  Buffer.add_string buf (Printf.sprintf "entity %s is\n  port (\n" name);
  section buf "iterator operations (table 2)";
  List.iter
    (fun port ->
      Buffer.add_string buf (Printf.sprintf "    %s;\n" (port_to_string port)))
    (iterator_ports cfg);
  section buf "container interface";
  let c_ports = container_facing_ports cfg in
  let n = List.length c_ports in
  List.iteri
    (fun i port ->
      Buffer.add_string buf
        (Printf.sprintf "    %s%s\n" (port_to_string port)
           (if i = n - 1 then "" else ";")))
    c_ports;
  Buffer.add_string buf (Printf.sprintf "  );\nend %s;\n" name);
  Buffer.contents buf

let iterator_architecture cfg =
  let name = Printf.sprintf "%s_it" cfg.Config.instance_name in
  let buf = Buffer.create 512 in
  Buffer.add_string buf (arch_header name);
  Buffer.add_string buf "begin\n  -- a pure wrapper: renames signals only\n";
  let open Metamodel in
  (match cfg.Config.kind with
  | Read_buffer | Queue | Stack | Write_buffer ->
    if has_method cfg "m_pop" then
      Buffer.add_string buf
        (Printf.sprintf "  c_m_pop <= it_read and it_%s;\n"
           (operation_name (read_step cfg)));
    if has_op cfg Read then Buffer.add_string buf "  it_data <= c_r_data;\n";
    if has_method cfg "m_push" then
      Buffer.add_string buf
        (Printf.sprintf "  c_m_push <= it_write and it_%s;\n"
           (operation_name (write_step cfg)));
    if has_op cfg Write && cfg.Config.kind <> Read_buffer then
      Buffer.add_string buf "  c_a_data <= it_wdata;\n"
  | Vector | Assoc_array ->
    Buffer.add_string buf "  -- random iterator: position register elsewhere\n");
  Buffer.add_string buf "  it_ack <= c_r_ack;\nend generated;\n";
  Buffer.contents buf

let generate_iterator ?(trace = Hwpat_obs.Trace.null) cfg =
  let module Trace = Hwpat_obs.Trace in
  Trace.span trace "codegen:iterator"
    ~args:
      [
        ("entity", Trace.String (cfg.Config.instance_name ^ "_it"));
        ("kind", Trace.String (Metamodel.container_name cfg.Config.kind));
      ]
  @@ fun () ->
  annotate_pruning trace cfg;
  String.concat "\n" [ libraries ^ iterator_entity cfg; iterator_architecture cfg ]

(* A foundation-library package: component declarations for a set of
   generated containers, ready for `use work.<name>.all`. *)
let generate_package ~name configs =
  let buf = Buffer.create 4096 in
  let emit buf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  Buffer.add_string buf libraries;
  emit buf "package %s is\n\n" name;
  List.iter
    (fun cfg ->
      emit buf "  component %s\n    port (\n" (Config.entity_name cfg);
      let clocked = needs_clock cfg in
      let ports =
        (if clocked then [ p "clk" In 1 ] else [])
        @ functional_ports cfg @ implementation_ports cfg
      in
      let n = List.length ports in
      List.iteri
        (fun i port ->
          emit buf "      %s%s\n" (port_to_string port)
            (if i = n - 1 then "" else ";"))
        ports;
      emit buf "    );\n  end component;\n\n")
    configs;
  emit buf "end %s;\n" name;
  Buffer.contents buf
