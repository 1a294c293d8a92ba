(** The proof campaign behind [hwpat prove] and [bench §prove]: a
    fixed battery of formal obligations over the paper designs, the
    optimizer, and the pruned container variants, shardable across
    domains with {!Parallel}.

    Four obligation families:
    - [monitor]: {!Hwpat_formal.Bmc.check_auto} on the paper designs —
      the protocol-monitor invariants (handshake, FIFO occupancy)
      proven to a bound instead of spot-checked in simulation;
    - [equiv]: {!Hwpat_formal.Equiv.check} of each paper design
      against its optimised form;
    - [optimize]: {!Hwpat_formal.Equiv.check} of random netlists
      ({!Hwpat_formal.Netgen}) against their optimised forms;
    - [prune]: {!Hwpat_formal.Equiv.check} of pruned container
      elaborations ({!Hwpat_containers.Elaborate}) against the full
      model on the retained interface.

    The smoke battery (CI) runs the three paper-design monitor proofs
    at a reduced bound plus ten optimizer-equivalence seeds; the full
    battery raises the bound to 20+, uses forty seeds, and adds the
    paper-design equivalence and pruned-pair obligations. *)

type result = {
  name : string;
  kind : string;  (** "monitor" | "equiv" | "optimize" | "prune" *)
  ok : bool;
  unknown : bool;
      (** the obligation was not decided — solver budget exhausted,
          or supervision gave up on it (never counted as proved
          {e or} refuted) *)
  status : string;  (** e.g. "proved", "holds(20)", "counterexample" *)
  seconds : float;
}

val run :
  ?trace:Hwpat_obs.Trace.t ->
  ?metrics:Hwpat_obs.Metrics.t ->
  ?jobs:int ->
  ?policy:Supervise.policy ->
  ?cancel:Parallel.token ->
  ?checkpoint:string ->
  ?resume:bool ->
  ?budget:Hwpat_formal.Solver.budget ->
  ?smoke:bool ->
  unit ->
  result list
(** Runs the battery ([smoke] defaults to false) across [jobs] domains
    (default {!Parallel.default_jobs}). Proof failures are reported in
    the result list, not raised; results are in a fixed deterministic
    order independent of [jobs].

    Execution is supervised ({!Supervise.run_shards}): [policy] sets
    per-obligation watchdog deadlines and retry counts (timeouts
    surface as [unknown] results with an [unfinished: ...] status,
    never as hangs); [cancel] stops further obligations from starting
    (the skipped ones also report [unfinished: cancelled]).
    [checkpoint] journals each completed obligation to the given path;
    with [resume] obligations already journaled under a matching
    battery configuration are skipped and their recorded results —
    originally measured seconds included — are reported as-is.

    [budget] caps each SAT solve inside every obligation
    (deterministically — operation counts, not wall clock); tripped
    obligations score [unknown] with an [unknown: ...] status.

    [trace] (default disabled) records one span per obligation on its
    worker domain's lane, with the {!Hwpat_formal.Equiv} /
    {!Hwpat_formal.Bmc} phase spans nested underneath; [metrics]
    (default disabled) accumulates the SAT solver counters ([solver.*]),
    supervision counters ([supervise.*]) and proved/failed/unknown
    totals ([prove.*]). *)

val all_ok : result list -> bool
val to_json : jobs:int -> smoke:bool -> result list -> Hwpat_obs.Json.t
(** The battery as one JSON object: counts, total seconds and one
    member per obligation (seconds rounded to milliseconds). *)

val summary : result list -> string
(** One line per obligation plus a final proved/failed count. *)
