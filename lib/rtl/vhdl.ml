let clock_name = "clk"

let is_sequential s =
  match Signal.prim s with
  | Signal.Reg _ | Signal.Mem_read_sync _ -> true
  | _ -> false

let has_state circuit =
  List.exists is_sequential (Circuit.signals circuit)
  || Circuit.memories circuit <> []

let slv_type width = Printf.sprintf "std_logic_vector(%d downto 0)" (width - 1)

let const_literal bits =
  Printf.sprintf "\"%s\"" (Bits.to_string bits)

(* Reference to a node: inputs are referenced by port name, constants
   inline, everything else through its declared signal ([Circuit.names]:
   user names win, suffixed with the node's position to stay unique). *)
let ref_of (nm : Circuit.names) s =
  match Signal.prim s with
  | Signal.Input name -> name
  | Signal.Const b -> const_literal b
  | _ -> nm.signal s

let uns nm s = Printf.sprintf "unsigned(%s)" (ref_of nm s)

let op2_rhs nm op a b w =
  let ref_of = ref_of nm and uns = uns nm in
  match op with
  | Signal.Add -> Printf.sprintf "std_logic_vector(%s + %s)" (uns a) (uns b)
  | Signal.Sub -> Printf.sprintf "std_logic_vector(%s - %s)" (uns a) (uns b)
  | Signal.Mul ->
    Printf.sprintf "std_logic_vector(resize(%s * %s, %d))" (uns a) (uns b) w
  | Signal.And -> Printf.sprintf "%s and %s" (ref_of a) (ref_of b)
  | Signal.Or -> Printf.sprintf "%s or %s" (ref_of a) (ref_of b)
  | Signal.Xor -> Printf.sprintf "%s xor %s" (ref_of a) (ref_of b)
  | Signal.Eq ->
    Printf.sprintf "\"1\" when %s = %s else \"0\"" (ref_of a) (ref_of b)
  | Signal.Lt ->
    Printf.sprintf "\"1\" when %s < %s else \"0\"" (uns a) (uns b)

let emit buffer fmt = Printf.ksprintf (Buffer.add_string buffer) fmt

let declare_signals (nm : Circuit.names) buf circuit =
  List.iter
    (fun s ->
      match Signal.prim s with
      | Signal.Input _ | Signal.Const _ -> ()
      | _ -> emit buf "  signal %s : %s;\n" (nm.signal s) (slv_type (Signal.width s)))
    (Circuit.signals circuit)

let declare_memories (nm : Circuit.names) buf circuit =
  List.iter
    (fun m ->
      let name = nm.memory m in
      emit buf "  type %s_t is array (0 to %d) of %s;\n" name
        (Signal.memory_size m - 1)
        (slv_type (Signal.memory_width m));
      emit buf "  signal %s : %s_t := (others => (others => '0'));\n" name name)
    (Circuit.memories circuit)

let emit_comb (nm : Circuit.names) buf s =
  let ref_of = ref_of nm and uns = uns nm in
  let lhs = nm.signal s in
  match Signal.prim s with
  | Signal.Const _ | Signal.Input _ -> ()
  | Signal.Op2 (op, a, b) ->
    emit buf "  %s <= %s;\n" lhs (op2_rhs nm op a b (Signal.width s))
  | Signal.Not a -> emit buf "  %s <= not %s;\n" lhs (ref_of a)
  | Signal.Concat parts ->
    emit buf "  %s <= %s;\n" lhs (String.concat " & " (List.map ref_of parts))
  | Signal.Select { src; high; low } ->
    if Signal.width src = 1 then emit buf "  %s <= %s;\n" lhs (ref_of src)
    else emit buf "  %s <= %s(%d downto %d);\n" lhs (ref_of src) high low
  | Signal.Mux { select; cases } ->
    let n = List.length cases in
    let branches =
      List.mapi
        (fun i c ->
          if i = n - 1 then Printf.sprintf "%s" (ref_of c)
          else
            Printf.sprintf "%s when to_integer(%s) = %d else" (ref_of c)
              (uns select) i)
        cases
    in
    emit buf "  %s <= %s;\n" lhs (String.concat "\n          " branches)
  | Signal.Mem_read_async { memory; addr } ->
    emit buf "  %s <= %s(to_integer(%s));\n" lhs (nm.memory memory) (uns addr)
  | Signal.Wire { driver = Some d } -> emit buf "  %s <= %s;\n" lhs (ref_of d)
  | Signal.Wire { driver = None } -> assert false
  | Signal.Reg _ | Signal.Mem_read_sync _ -> ()

let emit_reg (nm : Circuit.names) buf s =
  let ref_of = ref_of nm and uns = uns nm in
  match Signal.prim s with
  | Signal.Reg { d; enable; clear; clear_to; _ } ->
    let lhs = nm.signal s in
    emit buf "  process (%s)\n  begin\n    if rising_edge(%s) then\n" clock_name
      clock_name;
    let indent = ref "      " in
    (match clear with
    | Some c ->
      emit buf "%sif %s = \"1\" then\n" !indent (ref_of c);
      emit buf "%s  %s <= %s;\n" !indent lhs (const_literal clear_to);
      (match enable with
      | Some e -> emit buf "%selsif %s = \"1\" then\n" !indent (ref_of e)
      | None -> emit buf "%selse\n" !indent);
      indent := !indent ^ "  "
    | None ->
      (match enable with
      | Some e ->
        emit buf "%sif %s = \"1\" then\n" !indent (ref_of e);
        indent := !indent ^ "  "
      | None -> ()));
    emit buf "%s%s <= %s;\n" !indent lhs (ref_of d);
    (match (clear, enable) with
    | Some _, _ | _, Some _ -> emit buf "      end if;\n"
    | None, None -> ());
    emit buf "    end if;\n  end process;\n\n"
  | Signal.Mem_read_sync { memory; addr; enable } ->
    let lhs = nm.signal s in
    emit buf "  process (%s)\n  begin\n    if rising_edge(%s) then\n" clock_name
      clock_name;
    (match enable with
    | Some e ->
      emit buf "      if %s = \"1\" then\n" (ref_of e);
      emit buf "        %s <= %s(to_integer(%s));\n" lhs (nm.memory memory) (uns addr);
      emit buf "      end if;\n"
    | None ->
      emit buf "      %s <= %s(to_integer(%s));\n" lhs (nm.memory memory) (uns addr));
    emit buf "    end if;\n  end process;\n\n"
  | _ -> ()

let emit_memory_writes (nm : Circuit.names) buf m =
  let ref_of = ref_of nm and uns = uns nm in
  let ports = Signal.memory_write_ports m in
  if ports <> [] then begin
    emit buf "  process (%s)\n  begin\n    if rising_edge(%s) then\n" clock_name
      clock_name;
    List.iter
      (fun (enable, addr, data) ->
        emit buf "      if %s = \"1\" then\n" (ref_of enable);
        emit buf "        %s(to_integer(%s)) <= %s;\n" (nm.memory m) (uns addr)
          (ref_of data);
        emit buf "      end if;\n")
      ports;
    emit buf "    end if;\n  end process;\n\n"
  end

let to_string circuit =
  let nm = Circuit.names circuit in
  let buf = Buffer.create 4096 in
  emit buf "library ieee;\nuse ieee.std_logic_1164.all;\nuse ieee.numeric_std.all;\n\n";
  emit buf "entity %s is\n  port (\n" (Circuit.name circuit);
  let ports = ref [] in
  if has_state circuit then
    ports := [ Printf.sprintf "    %s : in std_logic" clock_name ];
  List.iter
    (fun (n, s) ->
      ports :=
        Printf.sprintf "    %s : in %s" n (slv_type (Signal.width s)) :: !ports)
    (Circuit.inputs circuit);
  List.iter
    (fun (n, s) ->
      ports :=
        Printf.sprintf "    %s : out %s" n (slv_type (Signal.width s)) :: !ports)
    (Circuit.outputs circuit);
  emit buf "%s\n  );\nend %s;\n\n" (String.concat ";\n" (List.rev !ports))
    (Circuit.name circuit);
  emit buf "architecture rtl of %s is\n" (Circuit.name circuit);
  declare_signals nm buf circuit;
  declare_memories nm buf circuit;
  emit buf "begin\n";
  List.iter (emit_comb nm buf) (Circuit.signals circuit);
  emit buf "\n";
  List.iter (emit_reg nm buf) (Circuit.signals circuit);
  List.iter (emit_memory_writes nm buf) (Circuit.memories circuit);
  List.iter
    (fun (n, s) -> emit buf "  %s <= %s;\n" n (ref_of nm s))
    (Circuit.outputs circuit);
  emit buf "end rtl;\n";
  Buffer.contents buf

let output fmt circuit = Format.pp_print_string fmt (to_string circuit)
