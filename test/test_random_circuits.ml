(* Random-circuit property testing: generate arbitrary signal graphs,
   then check
   - the optimiser preserves cycle-accurate behaviour,
   - the simulator agrees with a direct functional evaluation for
     combinational circuits,
   - HDL emitters stay structurally sane on arbitrary netlists. *)

open Hwpat_rtl
open Hwpat_rtl.Signal
module Sim_util = Hwpat_test_support.Sim_util

(* The deterministic random circuit builder lives in the formal
   library ({!Hwpat_formal.Netgen}) so the SAT-based proof battery and
   this property suite draw from the same seeded distribution. *)
let build_random_circuit = Hwpat_formal.Netgen.build_random_circuit

let run_sim circuit ~inputs ~seed ~cycles =
  let sim = Cyclesim.create circuit in
  let rng = Random.State.make [| seed * 7919 |] in
  let traces = ref [] in
  for _ = 1 to cycles do
    List.iter
      (fun (name, w) ->
        (* Always draw the value, even for ports the optimiser removed
           as dead, so both runs see identical stimulus streams. *)
        let v = Bits.of_int ~width:w (Random.State.int rng (1 lsl min w 20)) in
        if List.mem_assoc name (Circuit.inputs circuit) then
          Cyclesim.in_port sim name := v)
      inputs;
    Cyclesim.cycle sim;
    let snapshot =
      List.map
        (fun (name, _) -> Bits.to_string !(Cyclesim.out_port sim name))
        (Circuit.outputs circuit)
    in
    traces := snapshot :: !traces
  done;
  List.rev !traces

let test_optimize_equivalence () =
  for seed = 1 to 60 do
    let circuit, inputs = build_random_circuit ~seed in
    let optimized = Optimize.circuit circuit in
    let t_raw = run_sim circuit ~inputs ~seed ~cycles:25 in
    let t_opt = run_sim optimized ~inputs ~seed ~cycles:25 in
    if t_raw <> t_opt then
      Alcotest.failf "seed %d: optimised circuit diverges" seed
  done

let test_optimize_never_grows () =
  for seed = 61 to 100 do
    let circuit, _ = build_random_circuit ~seed in
    let optimized = Optimize.circuit circuit in
    let luts c = (Hwpat_synthesis.Techmap.estimate c).Hwpat_synthesis.Techmap.luts in
    let ffs c = (Hwpat_synthesis.Techmap.estimate c).Hwpat_synthesis.Techmap.ffs in
    if luts optimized > luts circuit then
      Alcotest.failf "seed %d: optimisation grew LUTs (%d -> %d)" seed
        (luts circuit) (luts optimized);
    if ffs optimized > ffs circuit then
      Alcotest.failf "seed %d: optimisation grew FFs" seed
  done

let test_emitters_on_random_circuits () =
  let count_substring needle hay =
    let nl = String.length needle and hl = String.length hay in
    let rec go i acc =
      if i + nl > hl then acc
      else if String.sub hay i nl = needle then go (i + 1) (acc + 1)
      else go (i + 1) acc
    in
    go 0 0
  in
  for seed = 101 to 130 do
    let circuit, _ = build_random_circuit ~seed in
    let vhdl = Vhdl.to_string circuit in
    if count_substring "process (" vhdl <> count_substring "end process;" vhdl
    then Alcotest.failf "seed %d: unbalanced VHDL processes" seed;
    let verilog = Verilog.to_string circuit in
    if not (count_substring "endmodule" verilog = 1) then
      Alcotest.failf "seed %d: bad Verilog module structure" seed
  done

(* --- Differential testing: reference vs compiled engine ----------------- *)

(* Step the naive reference interpreter and the compiled levelized
   engine through the same circuit in lock-step on identical stimulus,
   asserting identical outputs and register/sync-read state every
   cycle, and identical peeks of every signal at intervals.

   [drive] returns the named assignment it applied this cycle; the
   accumulated trace is replayed through {!Sim_util.replay_both} and
   printed on divergence, so a failure reports the offending stimulus
   rather than just a seed. *)
let lockstep ?(full_peek_every = 16) ~what ~cycles ~drive circuit =
  (* Elaborate and compile once per engine; the lockstep simulators —
     and the divergence replay below — are instances of these shared
     plans, never a recompilation. *)
  let ref_plan = Cyclesim.plan ~engine:Cyclesim.Reference circuit in
  let cmp_plan = Cyclesim.plan ~engine:Cyclesim.Compiled circuit in
  let ref_sim = Cyclesim.of_plan ref_plan in
  let cmp_sim = Cyclesim.of_plan cmp_plan in
  let regs =
    List.filter
      (fun s ->
        match prim s with Reg _ | Mem_read_sync _ -> true | _ -> false)
      (Circuit.signals circuit)
  in
  let all_signals = Circuit.signals circuit in
  let trace = ref [] in
  let fail_with_trace fmt =
    Printf.ksprintf
      (fun msg ->
        let stimulus = Sim_util.trace_to_string (List.rev !trace) in
        let confirmed =
          match
            Sim_util.replay_both ~plans:(ref_plan, cmp_plan) circuit
              (List.rev !trace)
          with
          | Some d ->
            Printf.sprintf
              "replay confirms: output %s diverges at cycle %d (%s vs %s)"
              d.Sim_util.port d.Sim_util.at
              (Bits.to_string d.Sim_util.reference)
              (Bits.to_string d.Sim_util.compiled)
          | None -> "replay of recorded stimulus does not itself diverge"
        in
        Alcotest.failf "%s\nstimulus:\n%s\n%s" msg stimulus confirmed)
      fmt
  in
  for cycle = 1 to cycles do
    trace := drive ref_sim cmp_sim cycle :: !trace;
    Cyclesim.cycle ref_sim;
    Cyclesim.cycle cmp_sim;
    List.iter
      (fun (name, _) ->
        let a = !(Cyclesim.out_port ref_sim name)
        and b = !(Cyclesim.out_port cmp_sim name) in
        if not (Bits.equal a b) then
          fail_with_trace "%s cycle %d: output %s diverges (%s vs %s)" what
            cycle name (Bits.to_string a) (Bits.to_string b))
      (Circuit.outputs circuit);
    List.iter
      (fun r ->
        let a = Cyclesim.peek_state ref_sim r
        and b = Cyclesim.peek_state cmp_sim r in
        if not (Bits.equal a b) then
          fail_with_trace "%s cycle %d: state of %s diverges (%s vs %s)" what
            cycle
            (Format.asprintf "%a" Signal.pp r)
            (Bits.to_string a) (Bits.to_string b))
      regs;
    if cycle mod full_peek_every = 0 then
      List.iter
        (fun s ->
          let a = Cyclesim.peek ref_sim s and b = Cyclesim.peek cmp_sim s in
          if not (Bits.equal a b) then
            fail_with_trace "%s cycle %d: peek of %s diverges (%s vs %s)" what
              cycle
              (Format.asprintf "%a" Signal.pp s)
              (Bits.to_string a) (Bits.to_string b))
        all_signals
  done

let random_driver ~inputs ~seed circuit =
  let rng = Random.State.make [| (seed * 7919) + 13 |] in
  fun ref_sim cmp_sim _cycle ->
    List.filter_map
      (fun (name, w) ->
        let v = Bits.of_int ~width:w (Random.State.int rng (1 lsl min w 20)) in
        if List.mem_assoc name (Circuit.inputs circuit) then begin
          Cyclesim.drive ref_sim name v;
          Cyclesim.drive cmp_sim name v;
          Some (name, v)
        end
        else None)
      inputs

(* The 40 differential circuits are independent: shard them across
   domains (each shard elaborates its own circuit and two sims; the
   seeded builder and drivers are domain-local). A failing shard's
   Alcotest exception propagates deterministically through
   Parallel.run. *)
let test_differential_random_circuits () =
  let seeds = Array.init 40 (fun i -> 161 + i) in
  ignore
    (Hwpat_core.Parallel.run (Array.length seeds) (fun i ->
         let seed = seeds.(i) in
         let circuit, inputs = build_random_circuit ~seed in
         lockstep
           ~what:(Printf.sprintf "seed %d" seed)
           ~cycles:250
           ~drive:(random_driver ~inputs ~seed circuit)
           circuit))

(* The three paper designs, driven with pseudorandom handshake traffic
   for thousands of cycles each — exercises FIFOs, SRAM substrates,
   sync and async memories, and the blur line buffers on both engines. *)
let test_differential_paper_designs () =
  let designs =
    [
      ( "saa2vga 1 (fifo)",
        Hwpat_core.Saa2vga.build ~substrate:Hwpat_core.Saa2vga.Fifo
          ~style:Hwpat_core.Saa2vga.Pattern () );
      ( "saa2vga 2 (sram)",
        Hwpat_core.Saa2vga.build ~substrate:Hwpat_core.Saa2vga.Sram
          ~style:Hwpat_core.Saa2vga.Pattern () );
      ( "blur",
        Hwpat_core.Blur_system.build ~image_width:8 ~max_rows:8
          ~style:Hwpat_core.Blur_system.Pattern () );
    ]
  in
  List.iteri
    (fun i (what, circuit) ->
      let inputs =
        List.map (fun (n, s) -> (n, width s)) (Circuit.inputs circuit)
      in
      lockstep ~what ~cycles:3000
        ~drive:(random_driver ~inputs ~seed:(1000 + i) circuit)
        circuit)
    designs

(* A batched campaign must classify every fault exactly as that
   fault's own single-fault run on the naive reference engine does:
   same outcome, violation, cycles, completion and err flag, and the
   same baseline length. *)
let test_differential_faultsim () =
  let build () =
    Hwpat_core.Saa2vga.build ~substrate:Hwpat_core.Saa2vga.Sram
      ~style:Hwpat_core.Saa2vga.Pattern ()
  in
  Hwpat_test_support.Campaign_oracle.check ~what:"seed 11"
    (Hwpat_test_support.Campaign_oracle.expect ~seed:11 ~faults:12
       ~frame_size:6 build)
    (Hwpat_core.Faultsim.run_campaign ~seed:11 ~faults:12 ~frame_width:6
       ~frame_height:6 ~build ~design:"saa2vga_sram_pattern" ())

(* The bit-parallel batched engine vs the naive interpreter: each
   random circuit runs 64 lanes at once, every lane fed its own random
   stimulus stream, with 64 naive simulations as the per-lane oracle.
   One batch clock advances all lanes (any lane view will do); each
   oracle is clocked individually. *)
let test_differential_batched () =
  let seeds = Array.init 10 (fun i -> 211 + i) in
  ignore
    (Hwpat_core.Parallel.run (Array.length seeds) (fun i ->
         let seed = seeds.(i) in
         let circuit, inputs = build_random_circuit ~seed in
         let lanes = Simbatch.lane_bits in
         let batch = Cyclesim.instantiate_batched (Cyclesim.plan circuit) in
         let views = Array.init lanes (Cyclesim.lane_view batch) in
         let oracles =
           Array.init lanes (fun _ ->
               Cyclesim.create ~engine:Cyclesim.Reference circuit)
         in
         let rngs =
           Array.init lanes (fun l ->
               Random.State.make [| (seed * 7919) + (101 * l) |])
         in
         for cycle = 1 to 40 do
           for l = 0 to lanes - 1 do
             List.iter
               (fun (name, w) ->
                 let v =
                   Bits.of_int ~width:w (Random.State.int rngs.(l) (1 lsl min w 20))
                 in
                 if List.mem_assoc name (Circuit.inputs circuit) then begin
                   Cyclesim.drive views.(l) name v;
                   Cyclesim.drive oracles.(l) name v
                 end)
               inputs
           done;
           Cyclesim.cycle views.(0);
           Array.iter Cyclesim.cycle oracles;
           for l = 0 to lanes - 1 do
             List.iter
               (fun (name, _) ->
                 let got = !(Cyclesim.out_port views.(l) name) in
                 let want = !(Cyclesim.out_port oracles.(l) name) in
                 if not (Bits.equal got want) then
                   Alcotest.failf
                     "seed %d lane %d cycle %d port %s: batched %s, naive %s"
                     seed l cycle name (Bits.to_string got)
                     (Bits.to_string want))
               (Circuit.outputs circuit)
           done
         done))

(* Idempotence: optimising twice equals optimising once (sizes). *)
let test_optimize_idempotent () =
  for seed = 131 to 160 do
    let circuit, _ = build_random_circuit ~seed in
    let once = Optimize.circuit circuit in
    let twice = Optimize.circuit once in
    let stats c = Netlist_stats.of_circuit c in
    let a = stats once and b = stats twice in
    if
      a.Netlist_stats.register_bits <> b.Netlist_stats.register_bits
      || a.Netlist_stats.op2_nodes < b.Netlist_stats.op2_nodes
    then Alcotest.failf "seed %d: second optimisation changed the netlist" seed
  done

let () =
  Alcotest.run "random-circuits"
    [
      ( "properties",
        [
          Alcotest.test_case "optimize preserves behaviour" `Slow
            test_optimize_equivalence;
          Alcotest.test_case "optimize never grows" `Quick
            test_optimize_never_grows;
          Alcotest.test_case "emitters survive anything" `Quick
            test_emitters_on_random_circuits;
          Alcotest.test_case "optimize idempotent" `Quick test_optimize_idempotent;
        ] );
      ( "differential",
        [
          Alcotest.test_case "random circuits: reference = compiled" `Quick
            test_differential_random_circuits;
          Alcotest.test_case "paper designs: reference = compiled" `Quick
            test_differential_paper_designs;
          Alcotest.test_case "faultsim classifications agree" `Quick
            test_differential_faultsim;
          Alcotest.test_case "random circuits x64 lanes: batched = naive"
            `Quick test_differential_batched;
        ] );
    ]
