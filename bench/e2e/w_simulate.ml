(* simulate: the `hwpat simulate` path for the four paper designs in
   pattern style, on a seeded QQVGA frame.  The simulator and its video
   harness do all the work. *)

open Hwpat_video
module Designs = Hwpat_core.Designs
module Experiment = Hwpat_core.Experiment
module Cyclesim = Hwpat_rtl.Cyclesim
module Trace = Hwpat_obs.Trace

let designs = [ "saa2vga-fifo"; "saa2vga-sram"; "blur"; "sobel" ]
let style = "pattern"

type input = { frame : Frame.t; width : int; height : int }

(* A gradient plus +-8 seeded noise: real video is neither flat nor
   random. *)
let prepare (o : Workload.opts) =
  let width, height = if o.smoke then (16, 16) else (160, 120) in
  let rng = Random.State.make [| o.seed; 1 |] in
  let g = Pattern.gradient ~width ~height ~depth:8 in
  let frame =
    Frame.init ~width ~height ~depth:8 (fun ~x ~y ->
        max 0 (min 255 (Frame.get g ~x ~y + Random.State.int rng 17 - 8)))
  in
  { frame; width; height }

(* Everything a run needs before its first simulated cycle. *)
let setup o =
  let inp = prepare o in
  List.iter
    (fun design ->
      let circuit, flavor =
        Designs.build ~design ~style ~frame_w:inp.width ~frame_h:inp.height
      in
      ignore (Cyclesim.plan circuit);
      ignore (Designs.reference flavor inp.frame))
    designs

let frame_digest f =
  Digest.to_hex
    (Digest.string (String.concat "," (List.map string_of_int (Frame.to_row_major f))))

type design_run = { design : string; cycles : int; output : string; ok : bool }

(* node evaluations, and what a settle of every node every cycle would
   have cost; zero on untraced iterations *)
type result = { runs : design_run list; evals : int; full_evals : int }

let run_design inp design =
  let circuit, flavor =
    Designs.build ~design ~style ~frame_w:inp.width ~frame_h:inp.height
  in
  let out_width, out_height =
    Designs.output_shape flavor ~width:inp.width ~height:inp.height
  in
  match
    Experiment.run_video_system circuit ~input:inp.frame ~out_width ~out_height
  with
  | r ->
    {
      design;
      cycles = r.Experiment.cycles;
      output = frame_digest r.Experiment.output;
      ok = Frame.equal r.Experiment.output (Designs.reference flavor inp.frame);
    }
  | exception Experiment.Timeout _ ->
    { design; cycles = -1; output = ""; ok = false }

let of_runs timed_runs =
  let runs = List.map snd timed_runs in
  ( {
      Workload.ops = List.map fst timed_runs;
      attempted = List.length runs;
      failed = List.length (List.filter (fun r -> not r.ok) runs);
    },
    runs )

let iteration inp () =
  let it, runs =
    of_runs (List.map (fun d -> Workload.timed (fun () -> run_design inp d)) designs)
  in
  (it, { runs; evals = 0; full_evals = 0 })

(* The run_video_system loop replayed from the same public calls, each
   charged to its layer, so the per-cycle harness cost is visible next
   to Cyclesim.cycle. *)
let replay_design trace clock inp design =
  let span name f = Trace.span trace name f in
  let tick = Layers.tick clock in
  let circuit, flavor =
    span "designs.build" (fun () ->
        Designs.build ~design ~style ~frame_w:inp.width ~frame_h:inp.height)
  in
  let plan = span "cyclesim.plan" (fun () -> Cyclesim.plan circuit) in
  let sim = span "cyclesim.instantiate" (fun () -> Cyclesim.of_plan plan) in
  let out_width, out_height =
    Designs.output_shape flavor ~width:inp.width ~height:inp.height
  in
  let expected = out_width * out_height in
  let budget = 400 * Frame.pixels inp.frame in
  let a0 = Cyclesim.activity sim in
  Layers.start clock;
  let source = Video_source.create sim inp.frame in
  tick "video.source";
  let sink = Vga_sink.create sim () in
  tick "video.sink";
  let cycles = ref 0 in
  let more () =
    let n = Vga_sink.count sink in
    tick "video.sink";
    n < expected && !cycles < budget
  in
  while more () do
    Video_source.drive source;
    tick "video.source";
    Vga_sink.drive sink;
    tick "video.sink";
    Cyclesim.cycle sim;
    tick "cyclesim.cycle";
    Video_source.observe source;
    tick "video.source";
    Vga_sink.observe sink;
    tick "video.sink";
    incr cycles
  done;
  let complete = Vga_sink.count sink = expected in
  let output =
    if complete then
      Some (Vga_sink.to_frame sink ~width:out_width ~height:out_height ~depth:8)
    else None
  in
  tick "video.sink";
  let a1 = Cyclesim.activity sim in
  let ok =
    span "reference.check" (fun () ->
        match output with
        | Some o -> Frame.equal o (Designs.reference flavor inp.frame)
        | None -> false)
  in
  let evals = a1.Cyclesim.node_evals - a0.Cyclesim.node_evals in
  let full =
    (a1.Cyclesim.settles - a0.Cyclesim.settles) * a1.Cyclesim.total_nodes
  in
  ( {
      design;
      cycles = (if complete then !cycles else -1);
      output = (match output with Some o -> frame_digest o | None -> "");
      ok;
    },
    evals,
    full )

let traced inp trace clock =
  let timed =
    List.map
      (fun d ->
        let t, (run, evals, full) =
          Workload.timed (fun () -> replay_design trace clock inp d)
        in
        ((t, run), (evals, full)))
      designs
  in
  let it, runs = of_runs (List.map fst timed) in
  let sum f = List.fold_left (fun n x -> n + f x) 0 (List.map snd timed) in
  (it, { runs; evals = sum fst; full_evals = sum snd })

let layer_metrics _profile ~wall:_ results =
  match results with
  | [] -> []
  | r :: _ ->
    let cycles = List.fold_left (fun n d -> n + d.cycles) 0 r.runs in
    let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b in
    [
      ("sim.cycles", float_of_int cycles);
      ("sim.node_evals_per_cycle", ratio r.evals cycles);
      ("sim.dirty_skip_rate", 1.0 -. ratio r.evals r.full_evals);
    ]

let checks ~untraced ~traced =
  let key r = List.map (fun d -> (d.design, d.cycles, d.output)) r.runs in
  let all = untraced @ traced in
  [
    ("simulate.bit_exact", List.for_all (fun r -> List.for_all (fun d -> d.ok) r.runs) all);
    ("simulate.deterministic", Workload.all_equal (List.map key all));
  ]

let workload (o : Workload.opts) =
  let inp = prepare o in
  {
    Workload.name = "simulate";
    inputs =
      Printf.sprintf "simulate %s %s %dx%d %s" (String.concat "," designs) style
        inp.width inp.height (frame_digest inp.frame);
    iteration = iteration inp;
    traced = traced inp;
    layer_of = None;
    layer_metrics;
    checks;
    notes = (fun _ -> []);
  }
