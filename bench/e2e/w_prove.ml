(* prove: the full formal battery (53 obligations) across two domains.
   Optimisation, structural hashing, bit-blasting and SAT search do the
   work; simulation appears only in candidate discovery and
   counterexample replay.  The battery is fixed, so the seed changes
   nothing here. *)

module Prove = Hwpat_core.Prove
module Metrics = Hwpat_obs.Metrics
module Trace = Hwpat_obs.Trace

let kinds = [ "monitor"; "equiv"; "optimize"; "prune" ]
let solver_counters = [ "propagations"; "conflicts"; "decisions"; "learned_clauses" ]

type result = {
  verdicts : (string * string) list;  (* obligation, status *)
  all_ok : bool;
  seconds : (string * float) list;  (* obligation kind, solve seconds *)
  counters : (string * int) list;  (* solver.* from a traced run *)
}

let run ~smoke ?trace ?metrics () =
  let results = Prove.run ?trace ?metrics ~jobs:Machine.jobs ~smoke () in
  ( {
      Workload.ops = List.map (fun r -> r.Prove.seconds) results;
      attempted = List.length results;
      failed = List.length (List.filter (fun r -> not r.Prove.ok) results);
    },
    {
      verdicts = List.map (fun r -> (r.Prove.name, r.Prove.status)) results;
      all_ok = Prove.all_ok results;
      seconds = List.map (fun r -> (r.Prove.kind, r.Prove.seconds)) results;
      counters =
        (match metrics with
        | None -> []
        | Some m ->
          List.map (fun c -> (c, Metrics.counter_value m ("solver." ^ c))) solver_counters);
    } )

let traced ~smoke trace _clock =
  let metrics = Metrics.create () in
  Trace.span trace "prove.run" (fun () -> run ~smoke ~trace ~metrics ())

(* Obligation spans are "<kind>:<name>"; Equiv's phases keep their own
   rows; Equiv.check's wrapper span merges into its obligation. *)
let layer_of name parent =
  match String.index_opt name ':' with
  | Some i -> "prove." ^ String.sub name 0 i
  | None -> (
    match name with
    | "bmc_sweep" | "discover" | "induction" -> "equiv." ^ name
    | "bmc" -> "bmc.check"
    | "equiv" -> Option.value parent ~default:"equiv"
    | n -> n)

let layer_metrics _profile ~wall results =
  let r = List.hd results in
  let kind_s k =
    List.fold_left (fun s (k', t) -> if k = k' then s +. t else s) 0.0 r.seconds
  in
  List.map (fun k -> ("prove.kind_pct." ^ k, Layers.pct (kind_s k) wall)) kinds
  @ [
      ( "prove.longest_pct",
        Layers.pct (List.fold_left (fun m (_, t) -> Float.max m t) 0.0 r.seconds) wall );
    ]
  @ List.map (fun (c, n) -> ("solver." ^ c, float_of_int n)) r.counters

let checks ~untraced ~traced =
  let all = untraced @ traced in
  [
    ("prove.all_proved", List.for_all (fun r -> r.all_ok) all);
    ("prove.deterministic", Workload.all_equal (List.map (fun r -> r.verdicts) all));
  ]

let workload (o : Workload.opts) =
  {
    Workload.name = "prove";
    inputs =
      Printf.sprintf "prove %s battery jobs=%d"
        (if o.smoke then "smoke" else "full")
        Machine.jobs;
    iteration = run ~smoke:o.smoke ?trace:None ?metrics:None;
    traced = traced ~smoke:o.smoke;
    layer_of = Some layer_of;
    layer_metrics;
    checks;
    notes = (fun _ -> []);
  }
