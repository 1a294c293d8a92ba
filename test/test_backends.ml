open Hwpat_rtl
open Hwpat_rtl.Signal

let contains needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let count_substring needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i acc =
    if i + nl > hl then acc
    else if String.sub hay i nl = needle then go (i + 1) (acc + 1)
    else go (i + 1) acc
  in
  go 0 0

(* A circuit exercising every primitive. *)
let full_circuit () =
  let a = input "a" 8 and b = input "b" 8 and sel = input "sel" 2 in
  let m = create_memory ~size:8 ~width:8 ~name:"scratch" () in
  mem_write_port m ~enable:(input "we" 1) ~addr:(input "wa" 3) ~data:a;
  let r_async = mem_read_async m ~addr:(input "ra" 3) in
  let r_sync = mem_read_sync m ~enable:(input "re" 1) ~addr:(input "ra2" 3) () in
  let muxed = mux sel [ a; b; a +: b; a -: b ] -- "muxed" in
  let q =
    reg
      ~enable:(input "en" 1)
      ~clear:(input "clr" 1)
      ~clear_to:(Bits.of_int ~width:8 7)
      muxed
  in
  let cat = concat_msb [ bit a 7; select b ~high:6 ~low:0 ] in
  Circuit.create_exn ~name:"everything"
    [
      ("q", q);
      ("r_async", r_async);
      ("r_sync", r_sync);
      ("cat", cat);
      ("is_eq", a ==: b);
      ("is_lt", a <: b);
      ("inv", ~:a);
      ("prod", a *: b);
      ("bits_or", a |: b);
      ("bits_xor", a ^: b);
    ]

let test_vhdl_structure () =
  let text = Vhdl.to_string (full_circuit ()) in
  let check name cond = Alcotest.(check bool) name true cond in
  check "entity" (contains "entity everything is" text);
  check "architecture" (contains "architecture rtl of everything is" text);
  check "clock port" (contains "clk : in std_logic" text);
  check "libraries" (contains "use ieee.numeric_std.all;" text);
  check "memory type" (contains "array (0 to 7)" text);
  check "rising edge" (contains "rising_edge(clk)" text);
  check "balanced processes"
    (count_substring "process (" text = count_substring "end process;" text);
  check "has mux chain" (contains "to_integer" text);
  check "clear constant" (contains "\"00000111\"" text)

let test_verilog_structure () =
  let text = Verilog.to_string (full_circuit ()) in
  let check name cond = Alcotest.(check bool) name true cond in
  check "module" (contains "module everything (" text);
  check "endmodule" (contains "endmodule" text);
  check "clock" (contains "posedge clk" text);
  check "memory decl" (contains "[0:7]" text);
  check "balanced begin/end"
    (count_substring "begin" text = count_substring "end\n" text)

let test_comb_only_no_clock () =
  let a = input "a" 4 in
  let c = Circuit.create_exn ~name:"nostate" [ ("y", ~:a) ] in
  Alcotest.(check bool) "vhdl: no clk port" false
    (contains "clk : in std_logic" (Vhdl.to_string c));
  Alcotest.(check bool) "verilog: no clk port" false
    (contains "input clk" (Verilog.to_string c))

let test_dot_export () =
  let text = Dot.to_string (full_circuit ()) in
  let check name cond = Alcotest.(check bool) name true cond in
  check "digraph" (contains "digraph everything {" text);
  check "register boxes" (contains "shape=box" text);
  check "edges" (contains " -> " text);
  check "outputs" (contains "out0" text);
  check "closes" (contains "}" text);
  (* every node id referenced in an edge is declared *)
  let lines = String.split_on_char '\n' text in
  let declared =
    List.filter_map
      (fun l ->
        let l = String.trim l in
        if String.length l > 2 && l.[0] = 'n' && contains "[label=" l then
          Some (List.hd (String.split_on_char ' ' l))
        else None)
      lines
  in
  List.iter
    (fun l ->
      let l = String.trim l in
      if contains " -> " l && String.length l > 0 && l.[0] = 'n' then begin
        let src = List.hd (String.split_on_char ' ' l) in
        check ("declared " ^ src) (List.mem src declared)
      end)
    lines

let test_netlist_stats () =
  let c = full_circuit () in
  let stats = Netlist_stats.of_circuit c in
  Alcotest.(check int) "one memory" 1 stats.Netlist_stats.memories;
  Alcotest.(check int) "memory bits" 64 stats.Netlist_stats.memory_bits;
  Alcotest.(check int) "register bits" 8 stats.Netlist_stats.register_bits;
  Alcotest.(check bool) "node count positive" true (stats.Netlist_stats.nodes > 10);
  Alcotest.(check int) "outputs" 10 stats.Netlist_stats.outputs

(* Every referenced identifier in the VHDL body must be declared:
   a lightweight lint that catches emitter name bugs. *)
let test_vhdl_no_undeclared () =
  let text = Vhdl.to_string (full_circuit ()) in
  (* All internal signals start with a name then _uid; collect
     declarations and uses of the "s_<n>" family. *)
  let declared = ref [] and used = ref [] in
  let add_matches prefix line bucket =
    let plen = String.length prefix in
    let rec scan i =
      if i + plen <= String.length line then
        if String.sub line i plen = prefix then begin
          let j = ref (i + plen) in
          while
            !j < String.length line
            && (match line.[!j] with '0' .. '9' -> true | _ -> false)
          do
            incr j
          done;
          if !j > i + plen then bucket := String.sub line i (!j - i) :: !bucket;
          scan !j
        end
        else scan (i + 1)
    in
    scan 0
  in
  String.split_on_char '\n' text
  |> List.iter (fun line ->
         let is_decl =
           String.length line > 9 && String.sub line 0 9 = "  signal "
         in
         if is_decl then add_matches "s_" line declared
         else add_matches "s_" line used);
  List.iter
    (fun u ->
      Alcotest.(check bool) (Printf.sprintf "declared %s" u) true
        (List.mem u !declared))
    (List.sort_uniq String.compare !used)

(* Out-of-range mux select semantics must agree everywhere: both
   simulation engines clamp to the last case (via Signal.mux_index, the
   single shared helper), and both HDL back-ends encode the same rule
   structurally — every case but the last is guarded by a select
   comparison, and the last is the unconditional default arm. *)
let test_mux_default_arm_consistency () =
  let check msg b = Alcotest.(check bool) msg true b in
  let sel = input "sel" 2 in
  let cases = [ of_int ~width:8 11; of_int ~width:8 22; of_int ~width:8 33 ] in
  let c = Circuit.create_exn ~name:"muxclamp" [ ("y", mux sel cases) ] in
  List.iter
    (fun engine ->
      let sim = Cyclesim.create ~engine c in
      Cyclesim.drive sim "sel" (Bits.of_int ~width:2 3);
      Cyclesim.cycle sim;
      Alcotest.(check int) "sim clamps out-of-range select to last case" 33
        (Bits.to_int !(Cyclesim.out_port sim "y")))
    [ Cyclesim.Reference; Cyclesim.Compiled ];
  Alcotest.(check int) "mux_index clamps" 2
    (Signal.mux_index ~n_cases:3 (Bits.of_int ~width:2 3));
  (* Constant folding goes through the same helper. *)
  let folded =
    Optimize.signal (mux (of_int ~width:2 3) cases)
  in
  Alcotest.(check (option int)) "const fold clamps" (Some 33)
    (Option.map Bits.to_int (const_value folded));
  let vhdl = Vhdl.to_string c in
  check "vhdl guards case 0" (contains "= 0 else" vhdl);
  check "vhdl guards case 1" (contains "= 1 else" vhdl);
  check "vhdl default arm is unguarded" (not (contains "= 2 else" vhdl));
  let verilog = Verilog.to_string c in
  check "verilog guards case 0" (contains "== 0 ?" verilog);
  check "verilog guards case 1" (contains "== 1 ?" verilog);
  check "verilog default arm is unguarded" (not (contains "== 2 ?" verilog))

(* Over-width shift semantics must agree everywhere, mirroring the mux
   default-arm rule above: [Bits.sll]/[srl] saturate a shift of
   [n >= width] to all zeros, [Signal.sll]/[srl] elaborate the same
   rule structurally (the over-width shift *is* the zero constant), so
   both simulation engines read zero and both HDL back-ends emit a
   literal zero with no reference to the shifted operand. *)
let test_shift_saturation_consistency () =
  let check msg b = Alcotest.(check bool) msg true b in
  let a = input "a" 8 in
  let c =
    Circuit.create_exn ~name:"shiftsat"
      [
        ("full_l", sll a 8);
        ("full_r", srl a 8);
        ("over_l", sll a 20);
        ("part", sll a 3);
      ]
  in
  (* The value-level rule the structure must match. *)
  check "Bits.sll saturates"
    (Bits.equal (Bits.sll (Bits.ones 8) 8) (Bits.zero 8));
  check "Bits.srl saturates"
    (Bits.equal (Bits.srl (Bits.ones 8) 20) (Bits.zero 8));
  List.iter
    (fun engine ->
      let sim = Cyclesim.create ~engine c in
      Cyclesim.drive sim "a" (Bits.of_int ~width:8 0xff);
      Cyclesim.cycle sim;
      List.iter
        (fun port ->
          check
            (Printf.sprintf "sim reads %s as zero" port)
            (Bits.equal !(Cyclesim.out_port sim port) (Bits.zero 8)))
        [ "full_l"; "full_r"; "over_l" ];
      Alcotest.(check int) "partial shift still shifts" 0xf8
        (Bits.to_int !(Cyclesim.out_port sim "part")))
    [ Cyclesim.Reference; Cyclesim.Compiled ];
  let vhdl = Vhdl.to_string c in
  check "vhdl full shift is a zero literal"
    (contains "full_l <= \"00000000\";" vhdl);
  check "vhdl over-width shift is a zero literal"
    (contains "over_l <= \"00000000\";" vhdl);
  check "vhdl partial shift pads with zeros" (contains "& \"000\";" vhdl);
  let verilog = Verilog.to_string c in
  check "verilog full shift is a zero literal"
    (contains "full_l = 8'b00000000;" verilog);
  check "verilog over-width shift is a zero literal"
    (contains "over_l = 8'b00000000;" verilog);
  check "verilog partial shift pads with zeros" (contains ", 3'b000};" verilog)

(* Emitted text is a function of the circuit alone: building the same
   design again, after other elaborations have advanced the global
   signal counter, must reproduce every back-end byte for byte. *)
let test_emit_independent_of_history () =
  let build () =
    fst
      (Hwpat_core.Designs.build ~design:"saa2vga-sram" ~style:"pattern"
         ~frame_w:16 ~frame_h:16)
  in
  let first = build () in
  ignore (full_circuit ());
  let second = build () in
  List.iter
    (fun (lang, emit) ->
      Alcotest.(check string) (lang ^ " identical") (emit first) (emit second))
    [ ("vhdl", Vhdl.to_string); ("verilog", Verilog.to_string); ("dot", Dot.to_string) ]

let () =
  Alcotest.run "backends"
    [
      ( "vhdl",
        [
          Alcotest.test_case "structure" `Quick test_vhdl_structure;
          Alcotest.test_case "no undeclared signals" `Quick test_vhdl_no_undeclared;
        ] );
      ("verilog", [ Alcotest.test_case "structure" `Quick test_verilog_structure ]);
      ( "common",
        [
          Alcotest.test_case "comb-only has no clock" `Quick test_comb_only_no_clock;
          Alcotest.test_case "netlist stats" `Quick test_netlist_stats;
          Alcotest.test_case "dot export" `Quick test_dot_export;
          Alcotest.test_case "mux default-arm consistency" `Quick
            test_mux_default_arm_consistency;
          Alcotest.test_case "shift saturation consistency" `Quick
            test_shift_saturation_consistency;
          Alcotest.test_case "emitted text independent of history" `Quick
            test_emit_independent_of_history;
        ] );
    ]
