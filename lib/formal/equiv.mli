open Hwpat_rtl

(** SAT-based equivalence checking of two circuits.

    Ports are matched by name. Input ports that exist in only one of
    the two circuits are constrained to zero — the convention under
    which a pruned variant (unused request ports tied to ground before
    optimisation) is compared against the full model on the retained
    interface. Output ports present in both circuits must agree;
    outputs exclusive to one side are ignored.

    Combinational circuits are checked with a single-frame miter.
    Sequential circuits are checked by (1) bounded search for a
    counterexample from the power-on state, then (2) proof by candidate
    equivalence induction in the style of van Eijk: random simulation
    groups state bits (registers, synchronous-read latches, memory
    words) of both circuits into candidate equality/constant classes,
    and an incremental induction loop drops candidates that fail their
    own induction step until the surviving set is closed; output
    equality is then checked relative to those proven invariants, with
    plain k-induction as a last resort. This is complete for the
    structural rewrites {!Optimize} performs; [Unknown] is possible for
    circuits that are equal for deeper reasons.

    Every counterexample is replayed through {!Cyclesim} before being
    reported; a divergence the simulator cannot reproduce raises
    (it would mean the encoding disagrees with the simulator). *)

type result =
  | Proved
  | Counterexample of (string * Bits.t) list list
      (** One input assignment per cycle (cycle 0 first) driving the
          matched circuits to differing outputs on the last cycle. *)
  | Unknown of string  (** not decided; the string says how far we got *)

val check :
  ?trace:Hwpat_obs.Trace.t ->
  ?metrics:Hwpat_obs.Metrics.t ->
  ?budget:Solver.budget ->
  ?interrupt:(unit -> unit) ->
  ?bmc_depth:int ->
  ?max_induction:int ->
  ?sim_cycles:int ->
  Circuit.t ->
  Circuit.t ->
  result
(** Defaults: [bmc_depth = 24] (counterexample search bound, and the
    base-case bound for k-induction), [max_induction = 20],
    [sim_cycles = 48] (random-simulation length for candidate
    discovery).

    Every time frame is built through the hash-consed {!Strash} form,
    so structure the two sides share — dissolved wrappers over the
    same metamodel config, repeated subcircuits within one side — is
    encoded once, and only the cones some constraint actually reaches
    are blasted.  One solver carries the whole check, so clauses
    learned during the BMC sweep prune the induction and so on down
    the ladder.

    [budget] (default unlimited) caps every individual solve call in
    the proof; on exhaustion the check stops and returns an honest
    [Unknown] rather than running unboundedly.  The caps count solver
    operations, so a budget trip is deterministic — the same pair
    trips at the same point in every run.  [interrupt] is polled from
    inside SAT search and may raise to abandon the check (the hook for
    supervision watchdogs); its exception propagates to the caller.

    [trace] (default disabled) records spans for the proof phases
    ([equiv] > [bmc_sweep] / [discover] / [induction]); [metrics]
    (default disabled) accumulates the SAT statistics of every solver
    the call created under [solver.*] (see {!Solver.stats}).  Stats
    are recorded when the check completes — normally or by raising
    from its own body — but {e not} when the [interrupt] hook aborts
    it: an aborted check is one a supervisor retries, and recording
    the partial attempt would double-count its work against the
    retry's own record (each solver instance must merge exactly
    once). *)

val counterexample_to_string : (string * Bits.t) list list -> string

val assert_equivalent :
  ?bmc_depth:int -> ?max_induction:int -> Circuit.t -> Circuit.t -> unit
(** Raises [Failure] with a readable message (including the replayed
    counterexample, if any) unless [check] returns [Proved]. *)

val optimize : ?verify:bool -> Circuit.t -> Circuit.t
(** [Optimize.run] with the SAT checker plugged into its [verify]
    hook: when [verify] is true (default false), proves the optimised
    circuit equivalent to the original and raises otherwise. *)
