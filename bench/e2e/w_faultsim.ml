(* faultsim: seeded fault campaigns on the SRAM pattern design, one on
   the scalar engine (the CLI default) and four on the 64-lane batched
   engine.  The same simulator as [simulate], in the many-short-runs
   regime where plan sharing, reset, monitors, sharding and lane
   batching matter. *)

module Faultsim = Hwpat_core.Faultsim
module Trace = Hwpat_obs.Trace

let design = "saa2vga_sram_pattern"
let lanes = 64

type input = { seeds : int list; faults : int; frame : int }

(* The scalar campaign runs at the first seed, batched ones at all four. *)
let prepare (o : Workload.opts) =
  {
    seeds = List.init 4 (fun k -> o.seed + k);
    faults = (if o.smoke then 16 else 640);
    frame = 16;
  }

let campaign ?trace ?lanes inp seed =
  Faultsim.run_campaign ?trace ?lanes ~jobs:Machine.jobs ~seed ~faults:inp.faults
    ~frame_width:inp.frame ~frame_height:inp.frame
    ~build:(Faultsim.find_design design) ~design ()

(* Set-up is what a campaign does before its first fault: elaborate,
   compile the plan, run the fault-free baseline. *)
let setup o =
  ignore (prepare o);
  ignore
    (Faultsim.run_campaign ~jobs:1 ~faults:0 ~frame_width:16 ~frame_height:16
       ~build:(Faultsim.find_design design) ~design ())

type result = {
  scalar : string;  (* summary JSON *)
  batched : string list;
  cycles : int;  (* simulated cycles over every fault of every campaign *)
  unfinished : int;
}

let run inp ~campaign_of =
  let s0 = List.hd inp.seeds in
  let timed = List.map (fun (lanes, seed) -> Workload.timed (fun () -> campaign_of ?lanes seed))
      ((None, s0) :: List.map (fun s -> (Some lanes, s)) inp.seeds)
  in
  let summaries = List.map snd timed in
  let unfinished s = Faultsim.count s Faultsim.Unfinished in
  let it =
    {
      Workload.ops = List.map fst timed;
      attempted = List.length summaries;
      failed = List.length (List.filter (fun s -> unfinished s > 0) summaries);
    }
  in
  let json = List.map Faultsim.summary_to_json summaries in
  ( it,
    {
      scalar = List.hd json;
      batched = List.tl json;
      cycles =
        List.fold_left
          (fun n s ->
            List.fold_left (fun n r -> n + r.Faultsim.cycles) n s.Faultsim.results)
          0 summaries;
      unfinished = List.fold_left (fun n s -> n + unfinished s) 0 summaries;
    } )

let iteration inp () = run inp ~campaign_of:(fun ?lanes seed -> campaign ?lanes inp seed)

let traced inp trace _clock =
  run inp ~campaign_of:(fun ?lanes seed ->
      Trace.span trace
        (if lanes = None then "faultsim.scalar" else "faultsim.batched")
        (fun () -> campaign ~trace ?lanes inp seed))

(* The program's campaign spans, named by layer: compile is the plan,
   fault#k / batch#k the per-fault and per-batch shards. *)
let layer_of name parent =
  match Layers.strip_index name with
  | "compile" -> "faultsim.plan"
  | "baseline" -> "faultsim.baseline"
  | "fault#" -> "faultsim.fault"
  | "batch#" -> "faultsim.batch"
  | "faultsim" -> Option.value parent ~default:"faultsim.campaign"
  | n -> n

let layer_metrics profile ~wall:_ results =
  let skew layer =
    match Layers.durations profile layer with
    | [] -> 0.0
    | ds -> List.fold_left Float.max 0.0 ds /. Stats.median ds
  in
  let total layer = List.fold_left ( +. ) 0.0 (Layers.durations profile layer) in
  let campaigns = total "faultsim.scalar" +. total "faultsim.batched" in
  let shards = total "faultsim.fault" +. total "faultsim.batch" in
  let r = List.hd results in
  [
    ("faultsim.fault_skew", skew "faultsim.fault");
    ("faultsim.batch_skew", skew "faultsim.batch");
    ( "faultsim.worker_busy_frac",
      if campaigns > 0.0 then shards /. (float_of_int Machine.jobs *. campaigns)
      else 0.0 );
    ("faultsim.cycles", float_of_int r.cycles);
    ("faultsim.unfinished", float_of_int r.unfinished);
  ]

let checks ~untraced ~traced =
  let all = untraced @ traced in
  [
    ( "faultsim.batched_equals_scalar",
      List.for_all (fun r -> List.hd r.batched = r.scalar) all );
    ( "faultsim.deterministic",
      Workload.all_equal (List.map (fun r -> (r.scalar, r.batched)) all) );
    ("faultsim.all_finished", List.for_all (fun r -> r.unfinished = 0) all);
  ]

let workload (o : Workload.opts) =
  let inp = prepare o in
  {
    Workload.name = "faultsim";
    inputs =
      Printf.sprintf "faultsim %s faults=%d frame=%dx%d seeds=%s lanes=%d jobs=%d"
        design inp.faults inp.frame inp.frame
        (String.concat "," (List.map string_of_int inp.seeds))
        lanes Machine.jobs;
    iteration = iteration inp;
    traced = traced inp;
    layer_of = Some layer_of;
    layer_metrics;
    checks;
    notes = (fun _ -> []);
  }
