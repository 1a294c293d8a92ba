(* The benchmark harness: regenerates every table and figure of the
   paper's evaluation, the §4 design-space observations, two ablations,
   and wall-clock throughput benches (one bechamel Test per table).

   Run with: dune exec bench/main.exe *)

open Hwpat_core
open Hwpat_video
module Json = Hwpat_obs.Json

(* Every BENCH_*.json goes through the one codec. *)
let write_bench_json path fields =
  Json.to_file path (Json.Obj fields);
  Printf.printf "\n  wrote %s\n" path

let banner title =
  let bar = String.make 72 '=' in
  Printf.printf "\n%s\n== %s\n%s\n" bar title bar

(* ---------------------------------------------------------------- *)
(* Table 1 and Table 2: the component library's capability matrices,
   regenerated from the metamodels.                                   *)
(* ---------------------------------------------------------------- *)

let table1 () =
  banner "Table 1 — common containers (regenerated from the metamodel)";
  print_endline Hwpat_meta.Metamodel.table1

let table2 () =
  banner "Table 2 — iterator operations (regenerated from the metamodel)";
  print_endline Hwpat_meta.Metamodel.table2

(* ---------------------------------------------------------------- *)
(* Figure 2: the pattern, as catalogued.                              *)
(* ---------------------------------------------------------------- *)

let figure2 () =
  banner "Figure 2 — the Iterator pattern (catalog entry)";
  print_endline (Hwpat_core.Pattern.describe Hwpat_core.Pattern.iterator)

(* ---------------------------------------------------------------- *)
(* Figures 4 and 5: generated VHDL for rbuffer over FIFO and SRAM.    *)
(* ---------------------------------------------------------------- *)

let figures_4_5 () =
  banner "Figure 4 — generated rbuffer_fifo (metaprogramming back-end)";
  let fifo_cfg =
    Hwpat_meta.Config.make ~instance_name:"rbuffer"
      ~kind:Hwpat_meta.Metamodel.Read_buffer ~target:Hwpat_meta.Metamodel.Fifo_core
      ~elem_width:8 ~depth:512 ()
  in
  print_endline (Hwpat_meta.Codegen.container_entity fifo_cfg);
  banner "Figure 5 — generated rbuffer_sram (implementation-interface delta)";
  let sram_cfg =
    Hwpat_meta.Config.make ~instance_name:"rbuffer"
      ~kind:Hwpat_meta.Metamodel.Read_buffer ~target:Hwpat_meta.Metamodel.Ext_sram
      ~elem_width:8 ~depth:512 ~addr_width:16 ()
  in
  print_endline (Hwpat_meta.Codegen.container_entity sram_cfg);
  Printf.printf "(lint: figure 4 %s, figure 5 %s)\n"
    (if Hwpat_meta.Vhdl_lint.is_clean (Hwpat_meta.Codegen.generate_container fifo_cfg)
     then "clean" else "ISSUES")
    (if Hwpat_meta.Vhdl_lint.is_clean (Hwpat_meta.Codegen.generate_container sram_cfg)
     then "clean" else "ISSUES")

(* ---------------------------------------------------------------- *)
(* Table 3: the design experiments.                                   *)
(* ---------------------------------------------------------------- *)

let table3_rows = lazy (Experiment.table3 ~frame_width:32 ~frame_height:32 ())

let table3 () =
  banner "Table 3 — design experiments (pattern/custom, ours vs paper)";
  print_string (Experiment.render_table3 (Lazy.force table3_rows));
  print_endline "";
  List.iter
    (fun r ->
      Printf.printf "  %-10s LUT overhead of the pattern version: %+.1f%%\n"
        r.Experiment.label
        (Hwpat_synthesis.Resource_report.overhead_percent r.Experiment.comparison))
    (Lazy.force table3_rows);
  print_endline
    "\n  Shape check (paper's claims): pattern ~ custom per design; saa2vga 1\n\
    \  uses 2 block RAMs vs 0 for saa2vga 2; blur >> copy designs in area.\n\
    \  Absolute numbers differ from the paper (our substrate is a calibrated\n\
    \  cost model, not ISE on real silicon); the relative structure is the\n\
    \  reproduced result."

(* ---------------------------------------------------------------- *)
(* Throughput: simulated cycles per pixel for every design.           *)
(* ---------------------------------------------------------------- *)

let throughput () =
  banner "Throughput — simulated cycles per pixel (16x16 frame)";
  let frame = Pattern.gradient ~width:16 ~height:16 ~depth:8 in
  let run circuit ~ow ~oh =
    (Experiment.run_video_system circuit ~input:frame ~out_width:ow ~out_height:oh)
      .Experiment.cycles_per_pixel
  in
  List.iter
    (fun (substrate, style) ->
      let c = Saa2vga.build ~depth:32 ~substrate ~style () in
      Printf.printf "  %-26s %6.2f cycles/pixel\n"
        (Saa2vga.name ~substrate ~style)
        (run c ~ow:16 ~oh:16))
    (Saa2vga.all_variants @ [ (Saa2vga.Sram_shared, Saa2vga.Pattern) ]);
  List.iter
    (fun style ->
      let c = Blur_system.build ~image_width:16 ~max_rows:16 ~style () in
      Printf.printf "  %-26s %6.2f cycles/pixel\n" (Blur_system.name ~style)
        (run c ~ow:14 ~oh:14))
    [ Blur_system.Pattern; Blur_system.Custom ];
  let sob = Sobel_system.build ~image_width:16 ~max_rows:16 () in
  Printf.printf "  %-26s %6.2f cycles/pixel\n" "sobel_pattern"
    (run sob ~ow:14 ~oh:14);
  print_endline
    "\n  The FIFO substrate sustains ~3 cycles/pixel; private SRAMs pay\n\
    \  wait states per access; the shared SRAM additionally serialises the\n\
    \  two buffers through the arbiter — §4's performance ordering."

(* ---------------------------------------------------------------- *)
(* §4 prose: FIFO vs SRAM design points across wait states.           *)
(* ---------------------------------------------------------------- *)

let design_space_section () =
  banner "§4 design space — FIFO vs SRAM points (wait-state sweep)";
  let points =
    { Characterize.container = "queue"; target = "fifo"; elem_width = 8;
      depth = 512; wait_states = 0 }
    :: List.map
         (fun ws ->
           { Characterize.container = "queue"; target = "sram"; elem_width = 8;
             depth = 512; wait_states = ws })
         [ 0; 1; 2; 3; 4 ]
  in
  let candidates = List.map Characterize.characterize points in
  print_endline (Hwpat_synthesis.Design_space.to_table candidates);
  print_endline
    "\n  The FIFO point: lowest cycles/access, costs a block RAM (max\n\
    \  performance at the highest cost). The SRAM points: no block RAM,\n\
    \  latency grows with wait states (smaller, memory-bound) — §4's two\n\
    \  ends of the design space.";
  banner "§3.4 region of interest under constraints (no block RAM)";
  print_endline
    (Characterize.region_report
       ~constraints:
         { Hwpat_synthesis.Design_space.no_constraints with
           Hwpat_synthesis.Design_space.max_brams = Some 0 }
       candidates)

(* ---------------------------------------------------------------- *)
(* Ablation A1: operation pruning.                                    *)
(* ---------------------------------------------------------------- *)

let ablation_pruning () =
  banner "Ablation A1 — unused-operation pruning (metamodel ports)";
  let full =
    Hwpat_meta.Config.make ~instance_name:"q" ~kind:Hwpat_meta.Metamodel.Queue
      ~target:Hwpat_meta.Metamodel.Ext_sram ~elem_width:8 ~depth:512 ()
  in
  let pruned =
    Hwpat_meta.Config.make ~instance_name:"q" ~kind:Hwpat_meta.Metamodel.Queue
      ~target:Hwpat_meta.Metamodel.Ext_sram ~elem_width:8 ~depth:512
      ~ops_used:[ Hwpat_meta.Metamodel.Read; Hwpat_meta.Metamodel.Inc ] ()
  in
  let count cfg =
    List.length (Hwpat_meta.Codegen.functional_ports cfg)
    + List.length (Hwpat_meta.Codegen.implementation_ports cfg)
  in
  Printf.printf "full interface   : %d ports\n" (count full);
  Printf.printf "read+inc pruned  : %d ports\n" (count pruned);
  Printf.printf
    "VHDL lines       : %d (full) vs %d (pruned)\n"
    (List.length (String.split_on_char '\n' (Hwpat_meta.Codegen.generate_container full)))
    (List.length (String.split_on_char '\n' (Hwpat_meta.Codegen.generate_container pruned)));
  (* At the netlist level: a random iterator generated with the full
     Table 2 operation set versus one with only read+inc. Tying the
     unused requests to ground lets the optimiser strip the dec/index/
     write machinery — "including only those resources that are really
     used by the selected operations". *)
  let open Hwpat_rtl.Signal in
  let open Hwpat_containers in
  let open Hwpat_iterators in
  let build ~pruned =
    let driver =
      {
        Iterator_intf.inc_req = input "inc" 1;
        dec_req = (if pruned then gnd else input "dec" 1);
        read_req = input "rd" 1;
        write_req = (if pruned then gnd else input "wr" 1);
        write_data = (if pruned then zero 8 else input "wd" 8);
        index_req = (if pruned then gnd else input "ix" 1);
        index_pos = (if pruned then zero 5 else input "ip" 5);
      }
    in
    let rit =
      Random_iterator.create ~length:16
        ~vector:(Vector_c.over_bram ~length:16 ~width:8)
        driver
    in
    let it = rit.Random_iterator.iterator in
    Hwpat_rtl.Optimize.circuit
      (Hwpat_rtl.Circuit.create_exn ~name:(if pruned then "pruned" else "full")
         [
           ("read_ack", it.Iterator_intf.read_ack);
           ("read_data", it.Iterator_intf.read_data);
           ("inc_ack", it.Iterator_intf.inc_ack);
         ])
  in
  let f = Hwpat_synthesis.Techmap.estimate (build ~pruned:false) in
  let r = Hwpat_synthesis.Techmap.estimate (build ~pruned:true) in
  Format.printf "random iterator, all ops (netlist) : %a@." Hwpat_synthesis.Techmap.pp f;
  Format.printf "random iterator, read+inc (netlist): %a@." Hwpat_synthesis.Techmap.pp r

(* ---------------------------------------------------------------- *)
(* Ablation A2: width adaptation (24-bit pixels over 8/24-bit buses).  *)
(* ---------------------------------------------------------------- *)

let ablation_width () =
  banner "Ablation A2 — pixel-format width adaptation (§3.3)";
  let open Hwpat_rtl.Signal in
  let open Hwpat_containers in
  let open Hwpat_iterators in
  let wide () =
    let d =
      { Container_intf.get_req = input "g" 1; put_req = input "p" 1;
        put_data = input "d" 24 }
    in
    let q = Queue_c.over_fifo ~depth:16 ~width:24 d in
    Hwpat_rtl.Circuit.create_exn ~name:"wide24"
      [ ("ga", q.Container_intf.get_ack); ("gd", q.Container_intf.get_data) ]
  in
  let narrow () =
    let driver =
      { (Iterator_intf.driver_stub ~data_width:24 ~pos_width:1) with
        Iterator_intf.read_req = input "r" 1; inc_req = input "i" 1 }
    in
    let it, () =
      Multi_word_iterator.input ~elem_width:24 ~bus_width:8
        ~build:(fun ~get_req ->
          let d =
            { Container_intf.get_req; put_req = input "p" 1;
              put_data = input "d" 8 }
          in
          (Queue_c.over_fifo ~depth:64 ~width:8 d, ()))
        driver
    in
    Hwpat_rtl.Circuit.create_exn ~name:"narrow8"
      [ ("ga", it.Iterator_intf.read_ack); ("gd", it.Iterator_intf.read_data) ]
  in
  let w = Hwpat_synthesis.Techmap.estimate (wide ()) in
  let n = Hwpat_synthesis.Techmap.estimate (narrow ()) in
  Format.printf "24-bit bus (regenerated base type): %a@." Hwpat_synthesis.Techmap.pp w;
  Format.printf "8-bit bus (multi-word iterator)   : %a@." Hwpat_synthesis.Techmap.pp n;
  (* And as complete video systems, functional equivalence included. *)
  let frame = Pattern.rgb_gradient ~width:8 ~height:6 in
  List.iter
    (fun bus ->
      let c = Saa2vga_rgb.build ~depth:32 ~bus () in
      let r =
        Experiment.run_video_system c ~input:frame ~out_width:8 ~out_height:6
      in
      let res = Hwpat_synthesis.Resource_report.of_circuit c in
      Printf.printf "%-20s %4d LUTs %4d FFs %2d BRAM  %5.1f cyc/px  %s\n"
        (match bus with `Wide -> "system, 24-bit bus:" | `Narrow -> "system, 8-bit bus:")
        res.Hwpat_synthesis.Resource_report.luts
        res.Hwpat_synthesis.Resource_report.ffs
        res.Hwpat_synthesis.Resource_report.brams
        r.Experiment.cycles_per_pixel
        (if Frame.equal r.Experiment.output frame then "lossless" else "CORRUPT"))
    [ `Wide; `Narrow ];
  print_endline
    "  The adaptation cost (word-sequencer FSM + assembly register) lives\n\
    \  in the iterator; the copy algorithm instance is identical in both."

(* ---------------------------------------------------------------- *)
(* Fault coverage: seeded campaigns with runtime monitors, and the    *)
(* resource price of the generated protection hardware.               *)
(* ---------------------------------------------------------------- *)

let faultcoverage () =
  banner "§faultcoverage — seeded fault campaigns (runtime monitors attached)";
  List.iter
    (fun design ->
      let summary =
        Faultsim.run_campaign ~seed:7 ~faults:12 ~build:(Faultsim.find_design design)
          ~design ()
      in
      Printf.printf
        "  %-28s %2d faults: %2d detected, %2d masked, %2d silent  (coverage %3.0f%%)\n"
        design
        (List.length summary.Faultsim.results)
        (Faultsim.count summary Faultsim.Detected)
        (Faultsim.count summary Faultsim.Masked)
        (Faultsim.count summary Faultsim.Silent)
        (100.0 *. Faultsim.coverage summary))
    [ "saa2vga_sram_pattern"; "saa2vga_sram_custom"; "saa2vga_sram_protected" ];
  print_endline "";
  print_endline
    "  Protection hardware overhead (saa2vga sram pattern vs protected):";
  print_endline Hwpat_synthesis.Resource_report.table3_header;
  print_endline
    (Hwpat_synthesis.Resource_report.table3_row (Faultsim.protection_overhead ()));
  (* Graceful degradation demo: hold the input SRAM's ack low and watch
     the protected design raise err and keep streaming. *)
  let open Hwpat_rtl in
  let circuit = Saa2vga.build_protected ~depth:16 ~op_timeout:(Some 8) ~faulty:true () in
  let frame = Pattern.gradient ~width:8 ~height:8 ~depth:8 in
  let collected, cycles, _, _, err =
    Faultsim.run_once
      ~events:
        [
          {
            Fault.at = 40;
            fault =
              Fault.Stuck_at
                {
                  signal = Circuit.find_input circuit "in_sram_fault_drop_ack";
                  value = Bits.one 1;
                  cycles = 0;
                };
          };
        ]
      ~budget:20_000 ~frame circuit
  in
  Printf.printf
    "\n\
    \  Degradation demo: in_sram ack held low from cycle 40 —\n\
    \  %d/%d pixels still delivered in %d cycles, err output %s.\n"
    (List.length collected) (Frame.pixels frame) cycles
    (if err then "high (degraded)" else "low")

(* ---------------------------------------------------------------- *)
(* §simthroughput: raw simulated cycles/sec, reference interpreter    *)
(* vs compiled levelized engine, with machine-readable output so the  *)
(* perf trajectory is tracked from PR 2 on.                           *)
(* ---------------------------------------------------------------- *)

type sim_bench = {
  sb_design : string;
  sb_engine : string;
  sb_cycles : int;
  sb_seconds : float;
}

let sb_rate b = float_of_int b.sb_cycles /. b.sb_seconds

let engine_name = function
  | Hwpat_rtl.Cyclesim.Reference -> "reference"
  | Hwpat_rtl.Cyclesim.Compiled -> "compiled"

let sim_throughput ?(smoke = false) () =
  banner
    (Printf.sprintf "§simthroughput — cycles/sec, reference vs compiled%s"
       (if smoke then " (smoke)" else ""));
  let time f =
    let t0 = Unix.gettimeofday () in
    f ();
    max 1e-9 (Unix.gettimeofday () -. t0)
  in
  let side = if smoke then 8 else 16 in
  let cycles_per_design = if smoke then 2_000 else 50_000 in
  (* Raw engine throughput: one sim per (design, engine), input port
     refs cached up front, every input driven from a pool of
     pre-generated pseudorandom values (seeded LCG, so both engines see
     the identical stimulus and the timed loop allocates nothing).
     This measures the simulation engines themselves rather than the
     frame harness around them. *)
  let bench_design ~engine (name, circuit, _, _) =
    let open Hwpat_rtl in
    let sim = Cyclesim.create ~engine circuit in
    let pool_size = 64 in
    let rng = ref 0x2545F49 in
    let next () =
      rng := ((!rng * 1103515245) + 12345) land 0x3FFFFFFF;
      !rng
    in
    let drivers =
      Circuit.inputs circuit
      |> List.map (fun (port, s) ->
             let w = Hwpat_rtl.Signal.width s in
             ( Cyclesim.in_port sim port,
               Array.init pool_size (fun _ -> Bits.of_int ~width:w (next ())) ))
      |> Array.of_list
    in
    let seconds =
      time (fun () ->
          for c = 1 to cycles_per_design do
            for k = 0 to Array.length drivers - 1 do
              let r, pool = drivers.(k) in
              r := pool.((c + k) land (pool_size - 1))
            done;
            Cyclesim.cycle sim
          done)
    in
    {
      sb_design = name;
      sb_engine = engine_name engine;
      sb_cycles = cycles_per_design;
      sb_seconds = seconds;
    }
  in
  let designs =
    [
      ( "saa2vga 1",
        Saa2vga.build ~depth:32 ~substrate:Saa2vga.Fifo ~style:Saa2vga.Pattern
          (),
        side,
        side );
      ( "saa2vga 2",
        Saa2vga.build ~depth:32 ~substrate:Saa2vga.Sram ~style:Saa2vga.Pattern
          (),
        side,
        side );
      ( "blur",
        Blur_system.build ~image_width:side ~max_rows:side
          ~style:Blur_system.Pattern (),
        side - 2,
        side - 2 );
    ]
  in
  let bench_faultsim ~engine =
    let faults = if smoke then 4 else 12 in
    let fw = if smoke then 4 else 8 in
    let summary = ref None in
    let seconds =
      time (fun () ->
          summary :=
            Some
              (Faultsim.run_campaign ~engine ~seed:7 ~faults ~frame_width:fw
                 ~frame_height:fw
                 ~build:(Faultsim.find_design "saa2vga_sram_pattern")
                 ~design:"saa2vga_sram_pattern" ()))
    in
    let summary = Option.get !summary in
    let cycles =
      List.fold_left
        (fun acc r -> acc + r.Faultsim.cycles)
        summary.Faultsim.baseline_cycles summary.Faultsim.results
    in
    {
      sb_design = "faultsim campaign";
      sb_engine = engine_name engine;
      sb_cycles = cycles;
      sb_seconds = seconds;
    }
  in
  let engines = [ Hwpat_rtl.Cyclesim.Reference; Hwpat_rtl.Cyclesim.Compiled ] in
  let entries =
    List.concat_map
      (fun engine -> List.map (bench_design ~engine) designs)
      engines
    @ List.map (fun engine -> bench_faultsim ~engine) engines
  in
  let find design engine =
    List.find (fun b -> b.sb_design = design && b.sb_engine = engine) entries
  in
  let design_names =
    List.map (fun (n, _, _, _) -> n) designs @ [ "faultsim campaign" ]
  in
  let speedups =
    List.map
      (fun d -> (d, sb_rate (find d "compiled") /. sb_rate (find d "reference")))
      design_names
  in
  List.iter
    (fun d ->
      let r = find d "reference" and c = find d "compiled" in
      Printf.printf
        "  %-18s reference %10.0f cyc/s   compiled %10.0f cyc/s   (%.1fx)\n" d
        (sb_rate r) (sb_rate c)
        (List.assoc d speedups))
    design_names;
  write_bench_json "BENCH_sim.json"
    [
      ("bench", Json.String "simthroughput");
      ("smoke", Json.Bool smoke);
      ( "entries",
        Json.List
          (List.map
             (fun b ->
               Json.Obj
                 [
                   ("design", Json.String b.sb_design);
                   ("engine", Json.String b.sb_engine);
                   ("cycles", Json.Int b.sb_cycles);
                   ("seconds", Json.rounded 6 b.sb_seconds);
                   ("cycles_per_sec", Json.rounded 1 (sb_rate b));
                 ])
             entries) );
      ( "speedup_compiled_over_reference",
        Json.Obj (List.map (fun (d, x) -> (d, Json.rounded 2 x)) speedups) );
    ]

(* ---------------------------------------------------------------- *)
(* §parscaling: domain-sharded campaigns and sweeps, jobs vs          *)
(* throughput, with a bit-identical-to-serial check on every run.     *)
(* ---------------------------------------------------------------- *)

type par_bench = {
  pb_workload : string;
  pb_jobs : int;
  pb_effective : int;
      (* domains that can actually run concurrently: min jobs recommended *)
  pb_oversubscribed : bool;
      (* more domains requested than the machine recommends — the
         timing measures scheduler overhead, not scaling, and is
         flagged rather than trusted *)
  pb_seconds : float;
  pb_identical : bool; (* output bytes equal to the jobs:1 run *)
}

(* [gate] enforces the CI scaling contract: on a machine with at least
   four recommended domains, the jobs:4 rows must beat serial
   (speedup > 1.0) for every workload.  On narrower machines the gate
   reports itself skipped — an oversubscribed timing proves nothing
   about scaling either way. *)
let parscaling ?(smoke = false) ?(max_jobs = 4) ?(gate = false) () =
  banner
    (Printf.sprintf
       "§parscaling — sharded campaigns and sweeps (recommended domains: %d)%s"
       (Domain.recommended_domain_count ())
       (if smoke then " (smoke)" else ""));
  let time f =
    let t0 = Unix.gettimeofday () in
    let v = f () in
    (v, max 1e-9 (Unix.gettimeofday () -. t0))
  in
  let jobs_list =
    List.sort_uniq compare
      (1 :: List.filter (fun j -> j <= max_jobs) [ 2; 4 ]
      @ [ Hwpat_core.Parallel.clamp_jobs max_jobs ])
  in
  let faults = if smoke then 6 else 16 in
  let fw = if smoke then 6 else 8 in
  let campaign jobs =
    Faultsim.run_campaign ~jobs ~seed:7 ~faults ~frame_width:fw
      ~frame_height:fw
      ~build:(Faultsim.find_design "saa2vga_sram_pattern")
      ~design:"saa2vga_sram_pattern" ()
  in
  let sweep_points =
    if smoke then
      [
        { Characterize.container = "queue"; target = "fifo"; elem_width = 8;
          depth = 64; wait_states = 0 };
        { Characterize.container = "queue"; target = "sram"; elem_width = 8;
          depth = 64; wait_states = 1 };
        { Characterize.container = "stack"; target = "bram"; elem_width = 8;
          depth = 64; wait_states = 0 };
        { Characterize.container = "vector"; target = "bram"; elem_width = 8;
          depth = 64; wait_states = 0 };
      ]
    else Characterize.default_points
  in
  let sweep jobs =
    Hwpat_synthesis.Design_space.to_json
      (Characterize.sweep ~jobs ~points:sweep_points ())
  in
  let workloads =
    [
      ("faultsim campaign", fun jobs -> Faultsim.summary_to_json (campaign jobs));
      ("characterisation sweep", sweep);
    ]
  in
  let recommended = Domain.recommended_domain_count () in
  let entries =
    List.concat_map
      (fun (name, run) ->
        let serial = ref None in
        List.map
          (fun jobs ->
            let out, seconds = time (fun () -> run jobs) in
            let identical =
              match !serial with
              | None ->
                serial := Some out;
                true
              | Some s -> String.equal s out
            in
            { pb_workload = name; pb_jobs = jobs;
              pb_effective = min jobs recommended;
              pb_oversubscribed = jobs > recommended;
              pb_seconds = seconds; pb_identical = identical })
          jobs_list)
      workloads
  in
  let seconds_at workload jobs =
    (List.find (fun e -> e.pb_workload = workload && e.pb_jobs = jobs) entries)
      .pb_seconds
  in
  let speedup e = seconds_at e.pb_workload 1 /. e.pb_seconds in
  List.iter
    (fun e ->
      Printf.printf "  %-24s jobs:%d (eff %d)  %7.3f s  speedup %.2fx  %s%s\n"
        e.pb_workload e.pb_jobs e.pb_effective e.pb_seconds (speedup e)
        (if e.pb_identical then "bit-identical to serial"
         else "OUTPUT DIVERGED")
        (if e.pb_oversubscribed then "  [oversubscribed]" else "");
      if not e.pb_identical then begin
        Printf.eprintf
          "parscaling: %s at jobs:%d is not bit-identical to the serial run\n"
          e.pb_workload e.pb_jobs;
        exit 1
      end)
    entries;
  if gate then begin
    if recommended < 4 || max_jobs < 4 then
      Printf.printf
        "\n  speedup gate skipped: %d recommended domain(s), max jobs %d — \
         jobs:4 rows would be oversubscribed\n"
        recommended max_jobs
    else begin
      let failures =
        List.filter (fun e -> e.pb_jobs = 4 && speedup e <= 1.0) entries
      in
      List.iter
        (fun e ->
          Printf.eprintf
            "parscaling gate: %s at jobs:4 is %.2fx vs serial (need > 1.0)\n"
            e.pb_workload (speedup e))
        failures;
      if failures <> [] then exit 1;
      Printf.printf "\n  speedup gate passed: all jobs:4 rows beat serial\n"
    end
  end;
  write_bench_json "BENCH_par.json"
    [
      ("bench", Json.String "parscaling");
      ("smoke", Json.Bool smoke);
      ("recommended_domains", Json.Int (Domain.recommended_domain_count ()));
      ( "entries",
        Json.List
          (List.map
             (fun e ->
               Json.Obj
                 [
                   ("workload", Json.String e.pb_workload);
                   ("jobs", Json.Int e.pb_jobs);
                   ("effective_jobs", Json.Int e.pb_effective);
                   ("oversubscribed", Json.Bool e.pb_oversubscribed);
                   ("seconds", Json.rounded 6 e.pb_seconds);
                   ("speedup_vs_jobs1", Json.rounded 2 (speedup e));
                   ("identical_to_serial", Json.Bool e.pb_identical);
                 ])
             entries) );
    ]

(* ---------------------------------------------------------------- *)
(* §batchsim: the bit-parallel batched engine — fault-campaign        *)
(* throughput at 1/4/16/64 lanes vs the scalar compiled engine, with  *)
(* a byte-identity check on every row.                                *)
(* ---------------------------------------------------------------- *)

type batch_bench = {
  bb_label : string;
  bb_lanes : int option; (* None = scalar compiled engine *)
  bb_seconds : float;
  bb_identical : bool; (* summary bytes equal to the scalar run *)
}

(* Everything runs at jobs:1 so the rows measure lane batching alone,
   not domain parallelism (§parscaling owns that axis; the two
   compose). [gate] enforces the CI contract: the 64-lane row of a
   64-fault campaign must be at least 8x faster than the scalar row.
   When the scalar run is too fast to time against noise the gate
   reports itself skipped rather than passing or failing on jitter. *)
let batchsim ?(smoke = false) ?(gate = false) () =
  banner
    (Printf.sprintf "§batchsim — bit-parallel batched fault campaigns%s"
       (if smoke then " (smoke)" else ""));
  (* Best-of-3 wall time: a single run's ratio jitters across the
     gate threshold on a loaded machine; the per-row minimum is the
     least-noise estimate of the true cost. *)
  let time f =
    let once () =
      let t0 = Unix.gettimeofday () in
      let v = f () in
      (v, max 1e-9 (Unix.gettimeofday () -. t0))
    in
    let v, s0 = once () in
    let _, s1 = once () in
    let _, s2 = once () in
    (v, min s0 (min s1 s2))
  in
  (* 64 faults = one full batch at 64 lanes — the gate's own shape —
     even in smoke; only the frame shrinks there. Frames are sized so
     per-campaign setup (circuit build, plan compile, golden frame) is
     amortised: below ~10x10 the constant term drags the 64-lane ratio
     under the gate even though per-cycle throughput clears it. *)
  let faults = 64 in
  let fw = if smoke then 12 else 16 in
  let campaign ?lanes () =
    Faultsim.summary_to_json
      (Faultsim.run_campaign ?lanes ~jobs:1 ~seed:7 ~faults ~frame_width:fw
         ~frame_height:fw
         ~build:(Faultsim.find_design "saa2vga_sram_pattern")
         ~design:"saa2vga_sram_pattern" ())
  in
  let scalar_out, scalar_seconds = time (fun () -> campaign ()) in
  let rows =
    { bb_label = "scalar"; bb_lanes = None; bb_seconds = scalar_seconds;
      bb_identical = true }
    :: List.map
         (fun lanes ->
           let out, seconds = time (fun () -> campaign ~lanes ()) in
           { bb_label = Printf.sprintf "lanes:%d" lanes;
             bb_lanes = Some lanes; bb_seconds = seconds;
             bb_identical = String.equal scalar_out out })
         [ 1; 4; 16; 64 ]
  in
  let speedup r = scalar_seconds /. r.bb_seconds in
  List.iter
    (fun r ->
      Printf.printf "  %-10s %8.3f s  speedup %5.2fx  %s\n" r.bb_label
        r.bb_seconds (speedup r)
        (if r.bb_identical then "byte-identical to scalar"
         else "OUTPUT DIVERGED");
      if not r.bb_identical then begin
        Printf.eprintf
          "batchsim: %s summary is not byte-identical to the scalar run\n"
          r.bb_label;
        exit 1
      end)
    rows;
  let gate_skipped_noise = scalar_seconds < 0.05 in
  if gate then
    if gate_skipped_noise then
      Printf.printf
        "\n  speedup gate skipped: scalar run finished in %.3f s — too fast \
         to time against noise\n"
        scalar_seconds
    else begin
      let r64 = List.find (fun r -> r.bb_lanes = Some 64) rows in
      if speedup r64 < 8.0 then begin
        Printf.eprintf
          "batchsim gate: 64 lanes is %.2fx vs scalar (need >= 8.0)\n"
          (speedup r64);
        exit 1
      end;
      Printf.printf "\n  speedup gate passed: 64 lanes is %.2fx vs scalar\n"
        (speedup r64)
    end;
  write_bench_json "BENCH_batch.json"
    [
      ("bench", Json.String "batchsim");
      ("smoke", Json.Bool smoke);
      ("design", Json.String "saa2vga_sram_pattern");
      ("faults", Json.Int faults);
      ("frame", Json.String (Printf.sprintf "%dx%d" fw fw));
      ( "entries",
        Json.List
          (List.map
             (fun r ->
               Json.Obj
                 [
                   ("label", Json.String r.bb_label);
                   ( "lanes",
                     match r.bb_lanes with None -> Json.Null | Some l -> Json.Int l );
                   ("seconds", Json.rounded 6 r.bb_seconds);
                   ("speedup_vs_scalar", Json.rounded 2 (speedup r));
                   ("identical_to_scalar", Json.Bool r.bb_identical);
                 ])
             rows) );
    ]

(* ---------------------------------------------------------------- *)
(* §prove: the formal proof battery — monitor BMC on the paper        *)
(* designs, optimizer equivalence, pruned-container equivalence.      *)
(* ---------------------------------------------------------------- *)

let prove_section ?(smoke = false) ?(max_jobs = 4) ?(gate = false) () =
  banner
    (Printf.sprintf "§prove — formal proof battery%s"
       (if smoke then " (smoke)" else ""));
  let jobs = Parallel.clamp_jobs max_jobs in
  let results = Prove.run ~jobs ~smoke () in
  print_string (Prove.summary results);
  let path = "BENCH_prove.json" in
  Json.to_file path (Prove.to_json ~jobs ~smoke results);
  Printf.printf "\n  wrote %s\n" path;
  if not (Prove.all_ok results) then exit 1;
  if gate then begin
    (* Wall clock on the battery's historically worst obligation, the
       blur equivalence: 37.7 s of the 76.2 s committed full-battery
       baseline before the structural-hashing rework.  The proof must
       land at least 2x under that row.  Its deterministic twin, the
       frozen solver-propagation threshold, is a test_formal case and
       runs on every [dune runtest]. *)
    let baseline_blur_s = 37.666 in
    let c =
      Blur_system.build ~image_width:8 ~max_rows:8 ~style:Blur_system.Pattern
        ()
    in
    let o = Hwpat_rtl.Optimize.circuit c in
    let t0 = Unix.gettimeofday () in
    (match Hwpat_formal.Equiv.check c o with
    | Hwpat_formal.Equiv.Proved -> ()
    | Hwpat_formal.Equiv.Counterexample _ | Hwpat_formal.Equiv.Unknown _ ->
      Printf.printf "prove gate: blur equivalence not proved\n";
      exit 1);
    let blur_s = Unix.gettimeofday () -. t0 in
    if blur_s > baseline_blur_s /. 2.0 then begin
      Printf.printf
        "prove gate: blur equivalence took %.2f s vs the %.1f s committed \
         baseline row (need >= 2x)\n"
        blur_s baseline_blur_s;
      exit 1
    end;
    Printf.printf
      "  speedup gate passed: blur equivalence %.2f s vs %.1f s committed \
       baseline row (%.1fx)\n"
      blur_s baseline_blur_s
      (baseline_blur_s /. max 1e-9 blur_s)
  end

(* ---------------------------------------------------------------- *)
(* §obsoverhead: cost of the observability layer on the blur          *)
(* workload.  The same [Experiment.run_video_system] call is timed    *)
(* with hooks disabled ([Trace.null]/[Metrics.null], the default),    *)
(* with tracing enabled, and with tracing and metrics both enabled;   *)
(* the fully-enabled run must stay within 3% of the disabled one.     *)
(* Timing is interleaved round-robin across the configs and the       *)
(* per-config minimum is taken, so clock-frequency drift and          *)
(* scheduler noise hit every config alike instead of faking an        *)
(* overhead on whichever config was measured in a slow period.        *)
(* ---------------------------------------------------------------- *)

let obsoverhead ?(smoke = false) () =
  banner
    (Printf.sprintf "§obsoverhead — observability layer cost, blur workload%s"
       (if smoke then " (smoke)" else ""));
  let module Trace = Hwpat_obs.Trace in
  let module Metrics = Hwpat_obs.Metrics in
  let side = if smoke then 16 else 32 in
  let reps = if smoke then 15 else 21 in
  let circuit =
    Blur_system.build ~image_width:side ~max_rows:side
      ~style:Blur_system.Pattern ()
  in
  let frame = Pattern.gradient ~width:side ~height:side ~depth:8 in
  let cycles = ref 0 in
  let run ~trace ~metrics () =
    let r =
      Experiment.run_video_system ~trace ~metrics circuit ~input:frame
        ~out_width:(side - 2) ~out_height:(side - 2)
    in
    cycles := r.Experiment.cycles
  in
  let time_once f =
    let t0 = Unix.gettimeofday () in
    f ();
    max 1e-9 (Unix.gettimeofday () -. t0)
  in
  (* Warm-up: touch every code path once before timing anything. *)
  run ~trace:(Trace.create ()) ~metrics:(Metrics.create ()) ();
  let configs =
    [
      ( "disabled",
        fun () -> run ~trace:Trace.null ~metrics:Metrics.null () );
      ( "trace",
        fun () -> run ~trace:(Trace.create ()) ~metrics:Metrics.null () );
      ( "trace+metrics",
        fun () -> run ~trace:(Trace.create ()) ~metrics:(Metrics.create ()) () );
    ]
  in
  let best = Array.make (List.length configs) infinity in
  for _ = 1 to reps do
    List.iteri
      (fun i (_, f) -> best.(i) <- min best.(i) (time_once f))
      configs
  done;
  let timed = List.mapi (fun i (name, _) -> (name, best.(i))) configs in
  let t_disabled = List.assoc "disabled" timed in
  let overhead_pct name =
    100.0 *. (List.assoc name timed -. t_disabled) /. t_disabled
  in
  List.iter
    (fun (name, seconds) ->
      Printf.printf "  %-14s %8.3f ms/run  %10.0f cyc/s%s\n" name
        (1000.0 *. seconds)
        (float_of_int !cycles /. seconds)
        (if name = "disabled" then ""
         else Printf.sprintf "   (%+.2f%%)" (overhead_pct name)))
    timed;
  let budget_pct = 3.0 in
  let worst = overhead_pct "trace+metrics" in
  let ok = worst < budget_pct in
  Printf.printf "  fully-enabled overhead %+.2f%% vs disabled (budget %.0f%%): %s\n"
    worst budget_pct
    (if ok then "PASS" else "FAIL");
  write_bench_json "BENCH_obs.json"
    [
      ("bench", Json.String "obsoverhead");
      ("smoke", Json.Bool smoke);
      ("workload", Json.String (Printf.sprintf "blur %dx%d" side side));
      ("cycles", Json.Int !cycles);
      ("reps", Json.Int reps);
      ( "configs",
        Json.List
          (List.map
             (fun (name, seconds) ->
               Json.Obj
                 [
                   ("config", Json.String name);
                   ("min_seconds", Json.rounded 6 seconds);
                   ( "overhead_pct",
                     Json.rounded 3
                       (if name = "disabled" then 0.0 else overhead_pct name) );
                 ])
             timed) );
      ("budget_pct", Json.rounded 1 budget_pct);
      ("ok", Json.Bool ok);
    ];
  if not ok then exit 1

(* ---------------------------------------------------------------- *)
(* §resilience: cost and fidelity of supervised execution.            *)
(* (a) Checkpoint overhead: the same faultsim campaign is timed with  *)
(* and without a journal, interleaved round-robin with per-config     *)
(* minima (the §obsoverhead discipline); the journaled run must stay  *)
(* within 3% of the plain one.                                        *)
(* (b) Resume fidelity: a full journal is cut down to half its        *)
(* entries with the final line torn mid-record — exactly what a       *)
(* SIGKILL leaves behind — and the campaign resumed from it; the      *)
(* resumed summary must be byte-identical to the uninterrupted one.   *)
(* ---------------------------------------------------------------- *)

let resilience ?(smoke = false) () =
  banner
    (Printf.sprintf "§resilience — supervised campaign execution%s"
       (if smoke then " (smoke)" else ""));
  (* Shards must be long enough that the per-shard journal append (a
     constant sub-millisecond cost) and scheduler noise cannot
     masquerade as overhead on the 3% budget. *)
  let faults = if smoke then 32 else 60 in
  let fw = if smoke then 14 else 16 in
  let reps = if smoke then 15 else 15 in
  let design = "saa2vga_sram_pattern" in
  let build = Faultsim.find_design design in
  let journal = Filename.temp_file "hwpat_bench_resil" ".jsonl" in
  (* The overhead guard runs serially: the journal mechanism (append +
     flush per completed shard) is identical at any job count, and at
     jobs:1 there is no domain-spawn / GC-synchronisation jitter — on
     a busy box that jitter is ±5%, an order of magnitude larger than
     the journal cost it would be measured against.  Resume fidelity
     below still exercises the sharded path. *)
  let campaign ?(jobs = 1) ?checkpoint ?(resume = false) () =
    Faultsim.run_campaign ~jobs ~seed:7 ~faults ~frame_width:fw
      ~frame_height:fw ?checkpoint ~resume ~build ~design ()
  in
  let time_once f =
    (* Settle the GC first so debt from the previous run (the other
       config) is not billed to this one. *)
    Gc.major ();
    let t0 = Unix.gettimeofday () in
    ignore (f ());
    max 1e-9 (Unix.gettimeofday () -. t0)
  in
  (* Warm-up: touch both code paths before timing. *)
  ignore (campaign ~checkpoint:journal ());
  (* Each rep times the two configs back to back and takes their
     ratio: clock-frequency and cgroup-throttle epochs span several
     seconds, so they hit both halves of a pair alike and cancel in
     the ratio where they would dominate an unpaired min-of-reps.
     The median pair is then robust to the occasional rep that
     straddles an epoch boundary. *)
  let t_plain = ref infinity and t_journal = ref infinity in
  let pair_pct =
    Array.init reps (fun _ ->
        let p = time_once (fun () -> campaign ()) in
        (* resume:false rewrites the journal, so every rep pays the
           full per-shard append+flush cost. *)
        let j = time_once (fun () -> campaign ~checkpoint:journal ()) in
        t_plain := min !t_plain p;
        t_journal := min !t_journal j;
        100.0 *. (j -. p) /. p)
  in
  Array.sort compare pair_pct;
  let overhead_pct = pair_pct.(reps / 2) in
  let budget_pct = 3.0 in
  let overhead_ok = overhead_pct < budget_pct in
  Printf.printf "  %-22s %8.3f s/run (min of %d)\n" "no checkpoint" !t_plain
    reps;
  Printf.printf "  %-22s %8.3f s/run (min of %d)\n" "checkpoint journal"
    !t_journal reps;
  Printf.printf
    "  checkpoint overhead %+.2f%% (median of paired reps, budget %.0f%%): %s\n"
    overhead_pct budget_pct
    (if overhead_ok then "PASS" else "FAIL");
  (* (b) Crash-and-resume fidelity, across the sharded path. *)
  let reference = Faultsim.render (campaign ~jobs:2 ~checkpoint:journal ()) in
  let lines =
    let ic = open_in journal in
    Fun.protect ~finally:(fun () -> close_in_noerr ic) @@ fun () ->
    let acc = ref [] in
    (try
       while true do
         acc := input_line ic :: !acc
       done
     with End_of_file -> ());
    List.rev !acc
  in
  let keep = 1 + ((List.length lines - 1) / 2) in
  let oc = open_out journal in
  List.iteri
    (fun i line ->
      if i < keep then (output_string oc line; output_char oc '\n'))
    lines;
  (* a torn final record, no trailing newline *)
  output_string oc "{\"key\": \"torn";
  close_out oc;
  let resumed =
    Faultsim.render (campaign ~jobs:2 ~checkpoint:journal ~resume:true ())
  in
  Sys.remove journal;
  let identical = String.equal reference resumed in
  Printf.printf
    "  resume from a torn half-journal (%d of %d lines): %s\n" keep
    (List.length lines)
    (if identical then "byte-identical summary" else "SUMMARY DIVERGED");
  let ok = overhead_ok && identical in
  write_bench_json "BENCH_resil.json"
    [
      ("bench", Json.String "resilience");
      ("smoke", Json.Bool smoke);
      ( "workload",
        Json.String (Printf.sprintf "faultsim %s %d faults %dx%d" design faults fw fw) );
      ("reps", Json.Int reps);
      ("plain_min_seconds", Json.rounded 6 !t_plain);
      ("checkpoint_min_seconds", Json.rounded 6 !t_journal);
      ( "paired_overhead_pcts",
        Json.List (Array.to_list (Array.map (Json.rounded 3) pair_pct)) );
      ("checkpoint_overhead_pct", Json.rounded 3 overhead_pct);
      ("budget_pct", Json.rounded 1 budget_pct);
      ("resume_identical", Json.Bool identical);
      ("ok", Json.Bool ok);
    ];
  if not ok then exit 1

(* ---------------------------------------------------------------- *)
(* §serve: the design-service daemon, measured end to end through a   *)
(* real connection.  (a) Cold vs warm latency for an elaborate +      *)
(* simulate pair — the warm pair answers from the canonical-key       *)
(* caches and must be at least 5x faster when gated.  (b) Sustained   *)
(* request throughput: a pipelined stream of requests through a       *)
(* jobs:4 pool, reported as requests/sec.                             *)
(* ---------------------------------------------------------------- *)

let serve_section ?(smoke = false) ?(gate = false) () =
  banner
    (Printf.sprintf "§serve — design-service daemon, cold vs warm cache%s"
       (if smoke then " (smoke)" else ""));
  let module Server = Hwpat_serve.Server in
  let write_all fd s =
    let n = String.length s in
    let rec go off =
      if off < n then go (off + Unix.write_substring fd s off (n - off))
    in
    go 0
  in
  (* A pipelined client: send [lines], read until the same number of
     newline-terminated responses has arrived, and fail loudly if any
     of them is an error — a bench that times rejections would be
     measuring the wrong thing. *)
  let roundtrip fd lines =
    write_all fd (String.concat "\n" lines ^ "\n");
    let want = List.length lines in
    let buf = Buffer.create 4096 in
    let chunk = Bytes.create 65536 in
    let got = ref 0 in
    while !got < want do
      let r = Unix.read fd chunk 0 (Bytes.length chunk) in
      if r = 0 then failwith "serve bench: connection closed early";
      for i = 0 to r - 1 do
        if Bytes.get chunk i = '\n' then incr got
      done;
      Buffer.add_subbytes buf chunk 0 r
    done;
    let out = Buffer.contents buf in
    List.iter
      (fun line ->
        match String.index_opt line ':' with
        | Some i when String.length line > i + 1 ->
          let tag = String.sub line (i + 1) 7 in
          if String.length tag >= 6 && String.sub tag 0 6 = "\"error" then
            failwith ("serve bench: error response: " ^ line)
        | _ -> ())
      (String.split_on_char '\n' out);
    out
  in
  let with_server ~jobs f =
    let server =
      Server.create
        { Server.default_config with jobs; max_inflight = 512; queue_bound = 512 }
    in
    let client, srv = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    let conn = Domain.spawn (fun () -> Server.serve_connection server srv srv) in
    Fun.protect
      ~finally:(fun () ->
        Unix.close client;
        Domain.join conn;
        Unix.close srv;
        Server.stop server;
        Server.shutdown server)
      (fun () -> f client)
  in
  let time f =
    let t0 = Unix.gettimeofday () in
    let v = f () in
    (v, max 1e-9 (Unix.gettimeofday () -. t0))
  in
  let side = if smoke then 10 else 16 in
  let pair =
    [
      Printf.sprintf
        "{\"id\":1,\"method\":\"elaborate\",\"params\":{\"container\":\"queue\",\
         \"target\":\"bram\",\"width\":8,\"depth\":4096}}";
      Printf.sprintf
        "{\"id\":2,\"method\":\"simulate\",\"params\":{\"design\":\"blur\",\
         \"width\":%d,\"height\":%d}}"
        side side;
    ]
  in
  (* (a) Cold vs warm on a single-worker server: the first pair pays
     elaboration and plan compilation, every later pair answers from
     the result cache.  Warm latency is a min-of-reps (the cost is
     microseconds; a single sample is all scheduler noise). *)
  let warm_reps = 20 in
  let cold_s, warm_s, warm_identical =
    with_server ~jobs:1 (fun fd ->
        let cold_out, cold_s = time (fun () -> roundtrip fd pair) in
        let warm_s = ref infinity in
        let identical = ref true in
        for _ = 1 to warm_reps do
          let out, s = time (fun () -> roundtrip fd pair) in
          warm_s := min !warm_s s;
          if not (String.equal out cold_out) then identical := false
        done;
        (cold_s, !warm_s, !identical))
  in
  let speedup = cold_s /. warm_s in
  Printf.printf "  cold elaborate+simulate   %8.3f ms\n" (1000.0 *. cold_s);
  Printf.printf "  warm elaborate+simulate   %8.3f ms  (min of %d)\n"
    (1000.0 *. warm_s) warm_reps;
  Printf.printf "  warm speedup              %8.1fx  %s\n" speedup
    (if warm_identical then "responses byte-identical to cold"
     else "RESPONSES DIVERGED");
  if not warm_identical then begin
    Printf.eprintf
      "serve bench: warm responses are not byte-identical to the cold run\n";
    exit 1
  end;
  (* (b) Sustained throughput: one pipelined connection, jobs:4 pool,
     all requests warm — the steady state a build system or sweep
     driver would see. *)
  let stream_n = if smoke then 200 else 1_000 in
  let stream_req i =
    Printf.sprintf
      "{\"id\":%d,\"method\":\"simulate\",\"params\":{\"design\":\"blur\",\
       \"width\":%d,\"height\":%d}}"
      i side side
  in
  let stream_s =
    with_server ~jobs:4 (fun fd ->
        (* warm the caches outside the timed window *)
        ignore (roundtrip fd [ stream_req 0 ]);
        let _, s =
          time (fun () ->
              roundtrip fd (List.init stream_n (fun i -> stream_req (i + 1))))
        in
        s)
  in
  let req_per_s = float_of_int stream_n /. stream_s in
  Printf.printf "  sustained (jobs:4, warm)  %8.0f req/s  (%d requests)\n"
    req_per_s stream_n;
  let gate_skipped_noise = cold_s < 0.002 in
  if gate then
    if gate_skipped_noise then
      Printf.printf
        "\n  speedup gate skipped: cold pair finished in %.3f ms — too fast \
         to time against noise\n"
        (1000.0 *. cold_s)
    else if speedup < 5.0 then begin
      Printf.eprintf
        "serve gate: warm cache is %.2fx vs cold (need >= 5.0)\n" speedup;
      exit 1
    end
    else
      Printf.printf "\n  speedup gate passed: warm cache is %.1fx vs cold\n"
        speedup;
  write_bench_json "BENCH_serve.json"
    [
      ("bench", Json.String "serve");
      ("smoke", Json.Bool smoke);
      ( "workload",
        Json.String
          (Printf.sprintf "elaborate queue/bram d=4096 + simulate blur %dx%d" side side) );
      ("cold_seconds", Json.rounded 6 cold_s);
      ("warm_min_seconds", Json.rounded 6 warm_s);
      ("warm_reps", Json.Int warm_reps);
      ("warm_speedup", Json.rounded 2 speedup);
      ("warm_identical", Json.Bool warm_identical);
      ("stream_requests", Json.Int stream_n);
      ("stream_jobs", Json.Int 4);
      ("stream_seconds", Json.rounded 6 stream_s);
      ("requests_per_sec", Json.rounded 1 req_per_s);
    ]

(* ---------------------------------------------------------------- *)
(* Bechamel wall-clock benches: one per table.                        *)
(* ---------------------------------------------------------------- *)

let bechamel_section () =
  banner "Wall-clock benches (bechamel): simulation throughput per design";
  let open Bechamel in
  let frame = Pattern.gradient ~width:8 ~height:8 ~depth:8 in
  let run_copy circuit () =
    ignore
      (Experiment.run_video_system circuit ~input:frame ~out_width:8 ~out_height:8)
  in
  let run_blur circuit () =
    ignore
      (Experiment.run_video_system circuit ~input:frame ~out_width:6 ~out_height:6)
  in
  (* Table 3 benches: one frame through each design (8x8). *)
  let t3_tests =
    List.map
      (fun (substrate, style) ->
        let circuit = Saa2vga.build ~depth:16 ~substrate ~style () in
        Test.make
          ~name:(Saa2vga.name ~substrate ~style)
          (Staged.stage (run_copy circuit)))
      Saa2vga.all_variants
    @ List.map
        (fun style ->
          let circuit = Blur_system.build ~image_width:8 ~max_rows:8 ~style () in
          Test.make ~name:(Blur_system.name ~style) (Staged.stage (run_blur circuit)))
        [ Blur_system.Pattern; Blur_system.Custom ]
  in
  (* Table 1/2 bench: metamodel table generation + VHDL generation. *)
  let codegen_test =
    Test.make ~name:"codegen_rbuffer_sram"
      (Staged.stage (fun () ->
           let cfg =
             Hwpat_meta.Config.make ~instance_name:"rbuffer"
               ~kind:Hwpat_meta.Metamodel.Read_buffer
               ~target:Hwpat_meta.Metamodel.Ext_sram ~elem_width:8 ~depth:512 ()
           in
           ignore (Hwpat_meta.Codegen.generate_container cfg)))
  in
  let tests = Test.make_grouped ~name:"hwpat" (t3_tests @ [ codegen_test ]) in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg =
    Benchmark.cfg ~limit:100 ~quota:(Time.second 0.25) ~stabilize:false ()
  in
  let raw = Benchmark.all cfg [ instance ] tests in
  let results = Analyze.all ols instance raw in
  let rows = Hashtbl.fold (fun name ols acc -> (name, ols) :: acc) results [] in
  List.iter
    (fun (name, ols) ->
      match Analyze.OLS.estimates ols with
      | Some [ est ] when est > 0.0 ->
        Printf.printf "  %-40s %10.2f us/frame\n" name (est /. 1000.0)
      | _ -> Printf.printf "  %-40s (no estimate)\n" name)
    (List.sort compare rows)

(* CLI: `bench/main.exe` regenerates everything; `--section NAME`
   (repeatable) runs a subset; `--smoke` shrinks the workloads so CI
   can exercise the harness in seconds; `--jobs N` caps the domain
   counts §parscaling sweeps over. *)
let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let smoke = List.mem "--smoke" args in
  let gate = List.mem "--gate-speedup" args in
  let max_jobs = ref 4 in
  let rec chosen = function
    | "--section" :: name :: rest -> name :: chosen rest
    | "--smoke" :: rest -> chosen rest
    | "--gate-speedup" :: rest -> chosen rest
    | "--jobs" :: n :: rest ->
      (match int_of_string_opt n with
      | Some j -> max_jobs := j
      | None ->
        Printf.eprintf "--jobs expects an integer, got %s\n" n;
        exit 2);
      chosen rest
    | arg :: _ ->
      Printf.eprintf
        "unknown argument %s (try --smoke, --section NAME, --jobs N, \
         --gate-speedup)\n"
        arg;
      exit 2
    | [] -> []
  in
  let chosen = chosen args in
  let sections =
    [
      ("table1", table1);
      ("table2", table2);
      ("figure2", figure2);
      ("figures45", figures_4_5);
      ("table3", table3);
      ("throughput", throughput);
      ("designspace", design_space_section);
      ("pruning", ablation_pruning);
      ("width", ablation_width);
      ("faultcoverage", faultcoverage);
      ("simthroughput", fun () -> sim_throughput ~smoke ());
      ("parscaling", fun () -> parscaling ~smoke ~max_jobs:!max_jobs ~gate ());
      ("batchsim", fun () -> batchsim ~smoke ~gate ());
      ("prove", fun () -> prove_section ~smoke ~max_jobs:!max_jobs ~gate ());
      ("obsoverhead", fun () -> obsoverhead ~smoke ());
      ("resilience", fun () -> resilience ~smoke ());
      ("serve", fun () -> serve_section ~smoke ~gate ());
      ("bechamel", bechamel_section);
    ]
  in
  let to_run = if chosen = [] then List.map fst sections else chosen in
  List.iter
    (fun name ->
      match List.assoc_opt name sections with
      | Some f -> f ()
      | None ->
        Printf.eprintf "unknown section %s (known: %s)\n" name
          (String.concat ", " (List.map fst sections));
        exit 2)
    to_run;
  if chosen = [] then begin
    banner "done";
    print_endline
      "All tables and figures regenerated. See EXPERIMENTS.md for the\n\
       paper-vs-measured record."
  end
