open Hwpat_meta

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let contains needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

(* --- Metamodel: Tables 1 and 2 -------------------------------------- *)

let test_table1_matches_paper () =
  let open Metamodel in
  let cap = capabilities in
  (* stack: sequential F input, B output, no random *)
  let s = cap Stack in
  check_bool "stack no random" true (not s.random_input && not s.random_output);
  check_bool "stack in F" true (s.sequential_input = Some Forward);
  check_bool "stack out B" true (s.sequential_output = Some Backward);
  (* queue: F/F *)
  let q = cap Queue in
  check_bool "queue F/F" true
    (q.sequential_input = Some Forward && q.sequential_output = Some Forward);
  (* read buffer: F input only *)
  let r = cap Read_buffer in
  check_bool "rbuffer input only" true
    (r.sequential_input = Some Forward && r.sequential_output = None);
  (* write buffer: F output only *)
  let w = cap Write_buffer in
  check_bool "wbuffer output only" true
    (w.sequential_input = None && w.sequential_output = Some Forward);
  (* vector: random + F,B both sides *)
  let v = cap Vector in
  check_bool "vector random" true (v.random_input && v.random_output);
  check_bool "vector seq both" true
    (v.sequential_input = Some Both && v.sequential_output = Some Both);
  (* assoc: random only *)
  let a = cap Assoc_array in
  check_bool "assoc random only" true
    (a.random_input && a.random_output && a.sequential_input = None
   && a.sequential_output = None)

let test_table2_operations () =
  let open Metamodel in
  check_string "inc meaning" "move forward" (operation_meaning Inc);
  check_string "dec applicability" "B / F, B" (operation_applicability Dec);
  check_string "index applicability" "random" (operation_applicability Index);
  (* Derived operation sets. *)
  let ops k = operations k in
  check_bool "queue has inc/read/write" true
    (List.mem Inc (ops Queue) && List.mem Read (ops Queue) && List.mem Write (ops Queue));
  check_bool "queue has no dec/index" true
    ((not (List.mem Dec (ops Queue))) && not (List.mem Index (ops Queue)));
  check_bool "stack has dec" true (List.mem Dec (ops Stack));
  check_bool "rbuffer read only" true
    (List.mem Read (ops Read_buffer) && not (List.mem Write (ops Read_buffer)));
  check_bool "wbuffer write only" true
    (List.mem Write (ops Write_buffer) && not (List.mem Read (ops Write_buffer)));
  check_bool "vector has everything" true
    (List.for_all (fun op -> List.mem op (ops Vector)) all_operations);
  check_bool "assoc has index" true (List.mem Index (ops Assoc_array));
  check_bool "assoc has no inc" true (not (List.mem Inc (ops Assoc_array)))

let test_rendered_tables () =
  let t1 = Metamodel.table1 and t2 = Metamodel.table2 in
  check_bool "t1 lists all containers" true
    (List.for_all
       (fun k -> contains (Metamodel.container_name k) t1)
       Metamodel.all_containers);
  check_bool "t2 lists all ops" true
    (List.for_all
       (fun op -> contains (Metamodel.operation_name op) t2)
       Metamodel.all_operations)

let test_legal_targets () =
  let open Metamodel in
  check_bool "queue over fifo" true (List.mem Fifo_core (legal_targets Queue));
  check_bool "stack over lifo" true (List.mem Lifo_core (legal_targets Stack));
  check_bool "stack not over fifo" true (not (List.mem Fifo_core (legal_targets Stack)));
  check_bool "everything over sram" true
    (List.for_all (fun k -> List.mem Ext_sram (legal_targets k)) all_containers);
  check_bool "vector only ram" true
    (List.for_all
       (fun t -> t = Block_ram || t = Ext_sram)
       (legal_targets Vector));
  check_bool "rbuffer over linebuf" true
    (List.mem Line_buffer3 (legal_targets Read_buffer))

(* --- Config --------------------------------------------------------- *)

let rbuffer_fifo_cfg =
  Config.make ~instance_name:"rbuffer" ~kind:Metamodel.Read_buffer
    ~target:Metamodel.Fifo_core ~elem_width:8 ~depth:512 ()

let rbuffer_sram_cfg =
  Config.make ~instance_name:"rbuffer" ~kind:Metamodel.Read_buffer
    ~target:Metamodel.Ext_sram ~elem_width:8 ~depth:512 ~addr_width:16 ()

let test_config_defaults () =
  check_int "bus = elem by default" 8 rbuffer_fifo_cfg.Config.bus_width;
  check_int "addr from depth" 9 rbuffer_fifo_cfg.Config.addr_width;
  check_int "one word per element" 1 (Config.words_per_element rbuffer_fifo_cfg);
  check_string "entity name" "rbuffer_fifo" (Config.entity_name rbuffer_fifo_cfg);
  check_string "sram entity name" "rbuffer_sram" (Config.entity_name rbuffer_sram_cfg)

let test_config_validation () =
  let expect_invalid f =
    try
      ignore (f ());
      Alcotest.fail "expected Invalid_argument"
    with Invalid_argument _ -> ()
  in
  (* stack over fifo is not a legal mapping *)
  expect_invalid (fun () ->
      Config.make ~instance_name:"s" ~kind:Metamodel.Stack
        ~target:Metamodel.Fifo_core ~elem_width:8 ~depth:16 ());
  (* rbuffer has no write op *)
  expect_invalid (fun () ->
      Config.make ~instance_name:"r" ~kind:Metamodel.Read_buffer
        ~target:Metamodel.Fifo_core ~elem_width:8 ~depth:16
        ~ops_used:[ Metamodel.Write ] ());
  (* element must be a multiple of the bus *)
  expect_invalid (fun () ->
      Config.make ~instance_name:"r" ~kind:Metamodel.Read_buffer
        ~target:Metamodel.Fifo_core ~elem_width:24 ~bus_width:7 ~depth:16 ())

let test_multi_word () =
  let cfg =
    Config.make ~instance_name:"rgb" ~kind:Metamodel.Queue
      ~target:Metamodel.Ext_sram ~elem_width:24 ~bus_width:8 ~depth:256 ()
  in
  check_int "three accesses per pixel" 3 (Config.words_per_element cfg)

(* --- Codegen: Figures 4 and 5 --------------------------------------- *)

let port_names ports = List.map (fun pt -> pt.Codegen.port_name) ports

let test_figure4_rbuffer_fifo () =
  let text = Codegen.generate_container rbuffer_fifo_cfg in
  check_bool "entity name" true (contains "entity rbuffer_fifo is" text);
  check_bool "methods section" true (contains "-- methods" text);
  check_bool "m_empty" true (contains "m_empty : in std_logic" text);
  check_bool "m_pop" true (contains "m_pop : in std_logic" text);
  check_bool "params section" true (contains "-- params" text);
  check_bool "implementation section" true
    (contains "-- implementation interface" text);
  (* Figure 4's implementation interface for a FIFO *)
  check_bool "p_empty in" true (contains "p_empty : in std_logic" text);
  check_bool "p_read out" true (contains "p_read : out std_logic" text);
  check_bool "p_data 8 bits" true
    (contains "p_data : in std_logic_vector(7 downto 0)" text);
  (* The architecture is a wrapper with no clocked process. *)
  check_bool "no process in fifo arch" true
    (not (contains "process" (Codegen.container_architecture rbuffer_fifo_cfg)))

let test_figure5_rbuffer_sram () =
  let text = Codegen.generate_container rbuffer_sram_cfg in
  (* Figure 5's delta: the SRAM implementation interface. *)
  check_bool "p_addr 16 bits" true
    (contains "p_addr : out std_logic_vector(15 downto 0)" text);
  check_bool "p_data 8 bits" true
    (contains "p_data : in std_logic_vector(7 downto 0)" text);
  check_bool "req out" true (contains "req : out std_logic" text);
  check_bool "ack in" true (contains "ack : in std_logic" text);
  (* The paper: "a little finite state machine ... begin and end
     pointers of the queue (implemented as a circular buffer)". *)
  let arch = Codegen.container_architecture rbuffer_sram_cfg in
  check_bool "has fsm" true (contains "state" arch);
  check_bool "has pointers" true
    (contains "ptr_begin" arch && contains "ptr_end" arch);
  check_bool "clocked" true (contains "rising_edge(clk)" arch)

let test_functional_interface_identical_across_targets () =
  (* The whole point of the pattern: the functional interface does not
     change when the target does. *)
  let f_fifo = port_names (Codegen.functional_ports rbuffer_fifo_cfg) in
  let f_sram = port_names (Codegen.functional_ports rbuffer_sram_cfg) in
  Alcotest.(check (list string)) "same functional ports" f_fifo f_sram

let test_pruning_removes_ports () =
  let full =
    Config.make ~instance_name:"q" ~kind:Metamodel.Queue
      ~target:Metamodel.Fifo_core ~elem_width:8 ~depth:16 ()
  in
  let read_only =
    Config.make ~instance_name:"q" ~kind:Metamodel.Queue
      ~target:Metamodel.Fifo_core ~elem_width:8 ~depth:16
      ~ops_used:[ Metamodel.Read; Metamodel.Inc ] ()
  in
  let full_ports = port_names (Codegen.functional_ports full) in
  let ro_ports = port_names (Codegen.functional_ports read_only) in
  check_bool "full has push" true (List.mem "m_push" full_ports);
  check_bool "pruned drops push" true (not (List.mem "m_push" ro_ports));
  check_bool "pruned drops data in" true (not (List.mem "a_data" ro_ports));
  check_bool "pruned keeps pop" true (List.mem "m_pop" ro_ports);
  check_bool "fewer ports" true (List.length ro_ports < List.length full_ports)

let test_iterator_is_wrapper () =
  let arch =
    Codegen.generate_iterator rbuffer_fifo_cfg
  in
  check_bool "entity" true (contains "entity rbuffer_it is" arch);
  check_bool "renames only" true (contains "renames signals only" arch);
  check_bool "fused pop" true (contains "c_m_pop <= it_read and it_inc;" arch);
  check_bool "no process" true (not (contains "process" arch))

(* --- Lint ------------------------------------------------------------ *)

let rec subsets = function
  | [] -> [ [] ]
  | x :: rest ->
    let s = subsets rest in
    List.map (fun l -> x :: l) s @ s

(* Every legal config: kind x target x width {8,16} x depth
   {64,512,4096} x non-empty ops subset x (no protection, or one legal
   protection) -- 2,166 in all.  Pruned subsets are where templates
   once referenced method strobes the entity had pruned away. *)
let all_configs =
  List.concat_map
    (fun kind ->
      let instance_name =
        String.map
          (fun c -> if c = ' ' || c = '.' then '_' else c)
          (Metamodel.container_name kind)
      in
      List.concat_map
        (fun target ->
          let protections =
            (false, None)
            :: List.map
                 (function
                   | Metamodel.Parity -> (true, None)
                   | Metamodel.Op_watchdog -> (false, Some 16))
                 (Metamodel.legal_protections target)
          in
          List.concat_map
            (fun elem_width ->
              List.concat_map
                (fun depth ->
                  List.concat_map
                    (fun ops_used ->
                      List.map
                        (fun (parity, op_timeout) ->
                          Config.make ~instance_name ~kind ~target ~elem_width
                            ~depth ~ops_used ~parity ?op_timeout ())
                        protections)
                    (List.filter (( <> ) [])
                       (subsets (Metamodel.operations kind))))
                [ 64; 512; 4096 ])
            [ 8; 16 ])
        (Metamodel.legal_targets kind))
    Metamodel.all_containers

let fail_lint cfg issues =
  Alcotest.failf "%s: %s" (Config.describe cfg)
    (String.concat "; " (List.map (fun i -> i.Vhdl_lint.message) issues))

let test_all_generated_lint_clean () =
  check_int "legal configs" 2166 (List.length all_configs);
  List.iter
    (fun cfg ->
      let text = Codegen.generate_container cfg in
      match
        Vhdl_lint.check_protected ~parity:cfg.Config.parity
          ~op_timeout:(cfg.Config.op_timeout <> None) text
      with
      | [] -> ()
      | issues -> fail_lint cfg issues)
    all_configs

let test_all_iterators_lint_clean () =
  List.iter
    (fun cfg ->
      match Vhdl_lint.check (Codegen.generate_iterator cfg) with
      | [] -> ()
      | issues -> fail_lint cfg issues)
    all_configs

(* Table 1 reads a stack forward and writes it backward (the
   metamodel maps sequential input to [Read] and output to [Write]),
   so on every legal stack config the entity declares [m_pop] exactly
   when read and inc survive pruning and [m_push] exactly when write
   and dec do, and the iterator fuses each strobe from those two. *)
let test_stack_strobes_follow_table1 () =
  let stacks =
    List.filter (fun c -> c.Config.kind = Metamodel.Stack) all_configs
  in
  check_int "legal stack configs" 540 (List.length stacks);
  List.iter
    (fun cfg ->
      let has op = List.mem op cfg.Config.ops_used in
      let ports = port_names (Codegen.functional_ports cfg) in
      let iterator = Codegen.generate_iterator cfg in
      let what s = Printf.sprintf "%s: %s" (Config.describe cfg) s in
      let pop = has Metamodel.Read && has Metamodel.Inc in
      let push = has Metamodel.Write && has Metamodel.Dec in
      check_bool (what "m_pop declared") pop (List.mem "m_pop" ports);
      check_bool (what "m_push declared") push (List.mem "m_push" ports);
      check_bool (what "iterator pops with read and inc") pop
        (contains "c_m_pop <= it_read and it_inc;" iterator);
      check_bool (what "iterator pushes with write and dec") push
        (contains "c_m_push <= it_write and it_dec;" iterator))
    stacks

(* One elaboration path: every legal config elaborates in full and
   pruned form, both forms estimate, pruning only removes inputs, and
   the netlist's data and index ports are as wide as the entity's
   under one fixed name map.  The entity declares [a_data] exactly
   when the pruned netlist keeps a data input. *)
let netlist_names =
  [
    ("r_data", [ "get_data"; "read_data"; "lookup_data" ]);
    ("a_data", [ "put_data"; "write_data"; "value_in" ]);
    ("a_index", [ "addr" ]);
    ("a_key", [ "key" ]);
  ]

let test_all_configs_elaborate () =
  let module Circuit = Hwpat_rtl.Circuit in
  let ports c = List.map (fun (n, s) -> (n, Hwpat_rtl.Signal.width s)) c in
  List.iter
    (fun cfg ->
      let what s = Printf.sprintf "%s: %s" (Config.describe cfg) s in
      let full = Hwpat_containers.Elaborate.full cfg in
      let pruned = Hwpat_containers.Elaborate.pruned cfg in
      List.iter
        (fun c ->
          ignore (Hwpat_synthesis.Techmap.estimate c);
          ignore (Hwpat_synthesis.Timing.analyze c))
        [ full; pruned ];
      let full_ports = ports (Circuit.inputs full) @ ports (Circuit.outputs full) in
      let pruned_inputs = ports (Circuit.inputs pruned) in
      List.iter
        (fun (n, w) ->
          if not (List.mem (n, w) full_ports) then
            Alcotest.failf "%s" (what ("pruned input " ^ n ^ " not a full input")))
        pruned_inputs;
      List.iter
        (fun (port : Codegen.port) ->
          match List.assoc_opt port.port_name netlist_names with
          | None -> ()
          | Some names -> (
            match List.filter (fun (n, _) -> List.mem n names) full_ports with
            | [ (n, w) ] ->
              check_int (what (port.port_name ^ " width vs " ^ n)) port.width w
            | _ -> Alcotest.failf "%s" (what ("no netlist port for " ^ port.port_name))))
        (Codegen.functional_ports cfg);
      check_bool (what "a_data iff a pruned data input")
        (List.exists
           (fun p -> p.Codegen.port_name = "a_data")
           (Codegen.functional_ports cfg))
        (List.exists
           (fun (n, _) -> List.mem n (List.assoc "a_data" netlist_names))
           pruned_inputs))
    all_configs

let test_lint_catches_errors () =
  let bad_balance = "entity x is\nend x;\nprocess (clk)\nbegin\n" in
  check_bool "unbalanced process" true (not (Vhdl_lint.is_clean bad_balance));
  let undeclared =
    "entity x is\n  port (\n    a : in std_logic\n  );\nend x;\n\
     architecture rtl of x is\nbegin\n  ghost <= a;\nend rtl;\n"
  in
  check_bool "undeclared lhs" true (not (Vhdl_lint.is_clean undeclared));
  let wrong_entity =
    "entity x is\nend x;\narchitecture rtl of y is\nbegin\nend rtl;\n"
  in
  check_bool "unknown entity" true (not (Vhdl_lint.is_clean wrong_entity));
  let clean =
    "entity x is\n  port (\n    a : in std_logic;\n    b : out std_logic\n  );\n\
     end x;\narchitecture rtl of x is\nbegin\n  b <= a;\nend rtl;\n"
  in
  check_bool "clean accepted" true (Vhdl_lint.is_clean clean);
  (* Referencing an identifier that is never declared must be caught —
     the failure mode that once slipped a wrong method strobe into the
     vector templates. *)
  let ghost_rhs =
    "entity x is\n  port (\n    a : in std_logic;\n    b : out std_logic\n  );\n\
     end x;\narchitecture rtl of x is\nbegin\n  b <= a and m_pop;\nend rtl;\n"
  in
  check_bool "undeclared rhs reference" true (not (Vhdl_lint.is_clean ghost_rhs))

let test_package_generation () =
  let configs =
    [
      rbuffer_fifo_cfg;
      rbuffer_sram_cfg;
      Config.make ~instance_name:"wbuffer" ~kind:Metamodel.Write_buffer
        ~target:Metamodel.Fifo_core ~elem_width:8 ~depth:512 ();
    ]
  in
  let text = Codegen.generate_package ~name:"basic_components" configs in
  check_bool "package header" true (contains "package basic_components is" text);
  check_bool "package end" true (contains "end basic_components;" text);
  check_bool "component rbuffer_fifo" true (contains "component rbuffer_fifo" text);
  check_bool "component rbuffer_sram" true (contains "component rbuffer_sram" text);
  check_bool "component wbuffer_fifo" true (contains "component wbuffer_fifo" text);
  check_int "three components" 3
    (let rec count i acc =
       if i + 10 > String.length text then acc
       else if String.sub text i 10 = "component " then count (i + 1) (acc + 1)
       else count (i + 1) acc
     in
     count 0 0)

let test_multiword_generates_word_machinery () =
  let cfg =
    Config.make ~instance_name:"rgb" ~kind:Metamodel.Queue
      ~target:Metamodel.Ext_sram ~elem_width:24 ~bus_width:8 ~depth:256 ()
  in
  let arch = Codegen.container_architecture cfg in
  check_bool "word counter" true (contains "word_idx" arch);
  check_bool "shift register" true (contains "shreg" arch);
  let narrow =
    Config.make ~instance_name:"g" ~kind:Metamodel.Queue
      ~target:Metamodel.Ext_sram ~elem_width:8 ~depth:256 ()
  in
  check_bool "no word counter when widths match" true
    (not (contains "word_idx" (Codegen.container_architecture narrow)))


(* --- Generated protection hardware ----------------------------------- *)

let protected_queue_cfg =
  Config.make ~instance_name:"pqueue" ~kind:Metamodel.Queue
    ~target:Metamodel.Ext_sram ~elem_width:8 ~depth:64 ~parity:true
    ~op_timeout:16 ()

let test_protected_container_golden () =
  let text = Codegen.generate_container protected_queue_cfg in
  (* Structural lint including the protection-specific checks. *)
  (match Vhdl_lint.check_protected ~parity:true ~op_timeout:true text with
  | [] -> ()
  | issues ->
    Alcotest.failf "protected queue fails lint: %s"
      (String.concat "; " (List.map (fun i -> i.Vhdl_lint.message) issues)));
  check_bool "err port" true (contains "err : out std_logic" text);
  check_bool "timeout port" true (contains "timeout : out std_logic" text);
  check_bool "parity store" true (contains "signal par_mem" text);
  check_bool "parity reduction" true (contains "par_wr <= xor p_wdata;" text);
  check_bool "watchdog counter" true (contains "signal wd_cnt" text);
  check_bool "watchdog window" true
    (contains "if wd_cnt = to_unsigned(16, wd_cnt'length) then" text);
  check_bool "sticky err drive" true (contains "err <= err_r;" text);
  check_bool "sticky timeout drive" true (contains "timeout <= timeout_r;" text)

let test_unprotected_container_has_no_protection () =
  let cfg =
    Config.make ~instance_name:"pqueue" ~kind:Metamodel.Queue
      ~target:Metamodel.Ext_sram ~elem_width:8 ~depth:64 ()
  in
  let text = Codegen.generate_container cfg in
  (match Vhdl_lint.check_protected ~parity:false ~op_timeout:false text with
  | [] -> ()
  | issues ->
    Alcotest.failf "unprotected queue fails lint: %s"
      (String.concat "; " (List.map (fun i -> i.Vhdl_lint.message) issues)));
  check_bool "no err port" true (not (contains "err : out std_logic" text));
  check_bool "no timeout port" true (not (contains "timeout : out std_logic" text));
  check_bool "no parity store" true (not (contains "par_mem" text));
  check_bool "no watchdog" true (not (contains "wd_cnt" text))

let test_protected_configs_lint_clean () =
  (* Every legal (kind, target, protection) combination generates clean
     VHDL with the declared error ports. *)
  List.iter
    (fun kind ->
      List.iter
        (fun target ->
          let prots = Metamodel.legal_protections target in
          let parity = List.mem Metamodel.Parity prots in
          let wd = List.mem Metamodel.Op_watchdog prots in
          if parity || wd then begin
            let cfg =
              Config.make
                ~instance_name:
                  (String.map
                     (fun c -> if c = ' ' || c = '.' then '_' else c)
                     (Metamodel.container_name kind))
                ~kind ~target ~elem_width:8 ~depth:64 ~parity
                ?op_timeout:(if wd then Some 8 else None) ()
            in
            let text = Codegen.generate_container cfg in
            match Vhdl_lint.check_protected ~parity ~op_timeout:wd text with
            | [] -> ()
            | issues ->
              Alcotest.failf "%s: %s" (Config.entity_name cfg)
                (String.concat "; "
                   (List.map (fun i -> i.Vhdl_lint.message) issues))
          end)
        (Metamodel.legal_targets kind))
    Metamodel.all_containers

let test_protection_config_validation () =
  let bad f = match f () with
    | exception Invalid_argument _ -> true
    | _ -> false
  in
  check_bool "parity on fifo rejected" true
    (bad (fun () ->
         Config.make ~instance_name:"q" ~kind:Metamodel.Queue
           ~target:Metamodel.Fifo_core ~elem_width:8 ~depth:64 ~parity:true ()));
  check_bool "watchdog on bram rejected" true
    (bad (fun () ->
         Config.make ~instance_name:"q" ~kind:Metamodel.Queue
           ~target:Metamodel.Block_ram ~elem_width:8 ~depth:64 ~op_timeout:8 ()));
  check_bool "zero timeout rejected" true
    (bad (fun () ->
         Config.make ~instance_name:"q" ~kind:Metamodel.Queue
           ~target:Metamodel.Ext_sram ~elem_width:8 ~depth:64 ~op_timeout:0 ()));
  check_bool "parity on bram accepted" true
    (not
       (bad (fun () ->
            Config.make ~instance_name:"q" ~kind:Metamodel.Queue
              ~target:Metamodel.Block_ram ~elem_width:8 ~depth:64 ~parity:true ())));
  check_bool "describe mentions protection" true
    (contains "parity + watchdog 16" (Config.describe protected_queue_cfg))

(* --- Algorithm metamodels (the paper's future-work extension) -------- *)

let test_algorithm_meta_copy () =
  let text = Algorithm_meta.generate (Algorithm_meta.copy ~elem_width:8) in
  check_bool "entity" true (contains "entity copy is" text);
  check_bool "src ports" true (contains "src_read : out std_logic" text);
  check_bool "dst ports" true (contains "dst_write : out std_logic" text);
  check_bool "handshake" true (contains "if src_ack = '1' then" text);
  check_bool "loops forever" true (contains "state <= st_0" text);
  check_bool "lints clean" true (Vhdl_lint.is_clean text)

let test_algorithm_meta_transform () =
  let t = Algorithm_meta.transform ~elem_width:8 ~expr:"not data" in
  let text = Algorithm_meta.generate t in
  check_bool "expression applied at the store port" true
    (contains "dst_data <= (not data);" text);
  check_bool "lints clean" true (Vhdl_lint.is_clean text);
  (* Chained applies compose textually. *)
  let chained =
    {
      Algorithm_meta.algorithm_name = "chain";
      elem_width = 8;
      body =
        [
          Algorithm_meta.Fetch "src";
          Algorithm_meta.Apply "not data";
          Algorithm_meta.Apply "data and mask";
          Algorithm_meta.Store "dst";
        ];
    }
  in
  let text = Algorithm_meta.generate chained in
  check_bool "composition" true (contains "((not data) and mask)" text)

let test_algorithm_meta_validation () =
  let bad body =
    match
      Algorithm_meta.validate
        { Algorithm_meta.algorithm_name = "bad"; elem_width = 8; body }
    with
    | Error _ -> true
    | Ok () -> false
  in
  check_bool "empty body rejected" true (bad []);
  check_bool "store before fetch rejected" true (bad [ Algorithm_meta.Store "dst" ]);
  check_bool "duplicate iterator rejected" true
    (bad [ Algorithm_meta.Fetch "x"; Algorithm_meta.Store "x" ]);
  check_bool "copy validates" true
    (Algorithm_meta.validate (Algorithm_meta.copy ~elem_width:8) = Ok ());
  Alcotest.(check (list (pair string (Alcotest.testable (fun fmt d -> Format.pp_print_string fmt (match d with `Input -> "in" | `Output -> "out")) ( = )))))
    "iterators" [ ("src", `Input); ("dst", `Output) ]
    (Algorithm_meta.iterators (Algorithm_meta.copy ~elem_width:8))

let () =
  Alcotest.run "meta"
    [
      ( "metamodel",
        [
          Alcotest.test_case "table 1" `Quick test_table1_matches_paper;
          Alcotest.test_case "table 2" `Quick test_table2_operations;
          Alcotest.test_case "rendered tables" `Quick test_rendered_tables;
          Alcotest.test_case "legal targets" `Quick test_legal_targets;
        ] );
      ( "config",
        [
          Alcotest.test_case "defaults" `Quick test_config_defaults;
          Alcotest.test_case "validation" `Quick test_config_validation;
          Alcotest.test_case "multi-word" `Quick test_multi_word;
        ] );
      ( "codegen",
        [
          Alcotest.test_case "figure 4 (rbuffer_fifo)" `Quick test_figure4_rbuffer_fifo;
          Alcotest.test_case "figure 5 (rbuffer_sram)" `Quick test_figure5_rbuffer_sram;
          Alcotest.test_case "interface stable across targets" `Quick
            test_functional_interface_identical_across_targets;
          Alcotest.test_case "pruning" `Quick test_pruning_removes_ports;
          Alcotest.test_case "iterator is a wrapper" `Quick test_iterator_is_wrapper;
          Alcotest.test_case "multi-word machinery" `Quick
            test_multiword_generates_word_machinery;
          Alcotest.test_case "foundation package" `Quick test_package_generation;
        ] );
      ( "elaborate",
        [
          Alcotest.test_case "every config, full and pruned" `Quick
            test_all_configs_elaborate;
        ] );
      ( "algorithm metamodels",
        [
          Alcotest.test_case "copy" `Quick test_algorithm_meta_copy;
          Alcotest.test_case "transform + composition" `Quick
            test_algorithm_meta_transform;
          Alcotest.test_case "validation" `Quick test_algorithm_meta_validation;
        ] );
      ( "lint",
        [
          Alcotest.test_case "all containers clean" `Quick test_all_generated_lint_clean;
          Alcotest.test_case "all iterators clean" `Quick test_all_iterators_lint_clean;
          Alcotest.test_case "stack strobes follow table 1" `Quick
            test_stack_strobes_follow_table1;
          Alcotest.test_case "catches errors" `Quick test_lint_catches_errors;
        ] );
      ( "protection",
        [
          Alcotest.test_case "protected queue golden" `Quick
            test_protected_container_golden;
          Alcotest.test_case "unprotected has none" `Quick
            test_unprotected_container_has_no_protection;
          Alcotest.test_case "all protected configs clean" `Quick
            test_protected_configs_lint_clean;
          Alcotest.test_case "config validation" `Quick
            test_protection_config_validation;
        ] );
    ]
