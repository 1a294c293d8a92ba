(* What every workload shares: run options, the outcome record, set-up
   timing in fresh processes, and the timed loop of the workloads that
   repeat one iteration (all but serve). *)

module Json = Hwpat_serve.Json
module Trace = Hwpat_obs.Trace

type opts = {
  seed : int;
  seconds : float;  (* length of the timed phase *)
  traced : bool;  (* also run traced iterations for the per-layer split *)
  smoke : bool;  (* tiny inputs, one iteration: the runtest check *)
  out_dir : string;  (* result, trace and socket files *)
}

type outcome = {
  attempted : int;  (* operations started *)
  failed : int;  (* operations that raised, errored or were refused *)
  checks : (string * bool) list;  (* named correctness checks *)
  inputs : string;  (* digest of the generated inputs *)
  e2e : (string * Stats.summary) list;
  per_layer : (string * float) list;
  profile : (Layers.profile * float) option;  (* layer table and its wall time *)
  notes : (string * Json.t) list;  (* workload-specific facts for the result file *)
}

let now = Unix.gettimeofday
let digest_hex s = Digest.to_hex (Digest.string s)

(* Time [f] in seconds. *)
let timed f =
  let t0 = now () in
  let v = f () in
  (now () -. t0, v)

(* Run [f] until [seconds] have passed and it ran at least [min_iters]
   times. *)
let iterate ~seconds ~min_iters f =
  let t0 = now () in
  let rec go acc k =
    if k >= min_iters && now () -. t0 >= seconds then List.rev acc
    else go (f () :: acc) (k + 1)
  in
  go [] 0

(* --- set-up in fresh processes ------------------------------------------- *)

(* Set-up is what a user waits for before the first unit of work: the
   process starting (runtime and module initialisation included) and
   the inputs being built.  Each repetition is a fresh [hwbench setup]
   process, timed from spawn until it reports ready. *)
let setup_reps opts = if opts.smoke then 1 else 11

let time_setup opts ~workload =
  let args =
    [| Sys.executable_name; "setup"; "--workload"; workload; "--seed";
       string_of_int opts.seed |]
    |> fun a -> if opts.smoke then Array.append a [| "--smoke" |] else a
  in
  List.init (setup_reps opts) (fun _ ->
      let t0 = now () in
      let ic = Unix.open_process_args_in Sys.executable_name args in
      let line = try input_line ic with End_of_file -> "" in
      let t = now () -. t0 in
      match Unix.close_process_in ic with
      | Unix.WEXITED 0 when line = "ready" -> t
      | _ -> failwith (workload ^ ": set-up process failed"))

(* --- repeated-iteration workloads ----------------------------------------- *)

(* One iteration's operations: per-operation latencies (seconds, the
   same operations in the same order every iteration), and failures. *)
type iter = { ops : float list; attempted : int; failed : int }

type 'r iterative = {
  name : string;
  inputs : string;  (* canonical rendering of the generated inputs *)
  iteration : unit -> iter * 'r;
  traced : Trace.t -> Layers.clock -> iter * 'r;
      (* the same iteration with each layer call in a span (or, for
         per-cycle calls, charged to the clock) *)
  layer_of : (string -> string option -> string) option;
  layer_metrics : Layers.profile -> wall:float -> 'r list -> (string * float) list;
      (* workload-specific per-layer metrics (counters, ratios) *)
  checks : untraced:'r list -> traced:'r list -> (string * bool) list;
  notes : 'r list -> (string * Json.t) list;  (* from the untraced iterations *)
}

let run_iterative opts ~per_layer_names w =
  let setup = time_setup opts ~workload:w.name in
  (* A traced run reports per-layer metrics only; its untraced
     iterations just set the baseline for the tracing overhead. *)
  let min_iters = if opts.smoke || opts.traced then 1 else 5 in
  let phase = if opts.traced then opts.seconds /. 2.0 else opts.seconds in
  let runs =
    iterate ~seconds:phase ~min_iters (fun () ->
        let wall, (it, r) = timed w.iteration in
        (wall, it, r))
  in
  (* Taken before any traced iteration grows the heap with events. *)
  let rss = Machine.peak_rss_mb None in
  let walls = List.map (fun (wall, _, _) -> wall) runs in
  let iters = List.map (fun (_, it, _) -> it) runs in
  let ms = Stats.map (fun s -> s *. 1000.0) in
  let ops = List.map (fun i -> i.ops) iters in
  let e2e =
    [
      ("setup_s", Stats.summarize setup);
      ("run_s", Stats.summarize walls);
      ("latency_p99_ms", ms (Stats.per_op ~p:0.99 ops));
      ("peak_rss_mb", Stats.single rss);
    ]
  in
  let traced_runs, profile =
    if not opts.traced then ([], None)
    else begin
      let trace = Trace.create () in
      let clock = Layers.clock () in
      let traced =
        iterate ~seconds:phase ~min_iters:1 (fun () ->
            let wall, (it, r) =
              timed (fun () ->
                  Trace.span trace Layers.root (fun () -> w.traced trace clock))
            in
            (wall, it, r))
      in
      Trace.write_file trace
        (Filename.concat opts.out_dir ("trace-" ^ w.name ^ ".json"));
      let p =
        Layers.profile ?layer_of:w.layer_of ~clock
          (Layers.spans_of_json (Trace.to_chrome_json trace))
      in
      (traced, Some p)
    end
  in
  let per_layer =
    match profile with
    | None -> []
    | Some p ->
      let twalls = List.map (fun (wall, _, _) -> wall) traced_runs in
      let wall = p.Layers.wall in
      Layers.self_pct_metrics p ~wall per_layer_names
      @ w.layer_metrics p ~wall (List.map (fun (_, _, r) -> r) traced_runs)
      @ [
          ( "trace_overhead_pct",
            100.0 *. ((Stats.median twalls /. Stats.median walls) -. 1.0) );
          ("trace.coverage_pct", Layers.coverage_pct p);
        ]
  in
  let all = iters @ List.map (fun (_, it, _) -> it) traced_runs in
  {
    attempted = List.fold_left (fun n i -> n + i.attempted) 0 all;
    failed = List.fold_left (fun n i -> n + i.failed) 0 all;
    checks =
      w.checks
        ~untraced:(List.map (fun (_, _, r) -> r) runs)
        ~traced:(List.map (fun (_, _, r) -> r) traced_runs);
    inputs = digest_hex w.inputs;
    e2e;
    per_layer;
    profile = Option.map (fun p -> (p, p.Layers.wall)) profile;
    notes =
      [
        ("iterations", Json.Int (List.length runs));
        ("latency_p50_ms", Json.Float (ms (Stats.per_op ~p:0.5 ops)).Stats.value);
      ]
      @ w.notes (List.map (fun (_, _, r) -> r) runs);
  }

(* All results of a list are equal (vacuously true when empty). *)
let all_equal = function
  | [] -> true
  | x :: rest -> List.for_all (( = ) x) rest
