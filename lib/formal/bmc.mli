open Hwpat_rtl

(** Bounded model checking of safety properties over a circuit.

    Properties are single-bit "bad" signals built on top of the
    circuit's own graph: a violation is a reachable cycle in which a
    bad signal settles to 1 under some input sequence from the power-on
    state. {!derive_properties} compiles the library's runtime protocol
    monitors ({!Monitor.add_auto}'s naming conventions) into such bad
    signals, so the same invariants that are spot-checked in simulation
    can be proven exhaustively to a bound, or refuted with a concrete
    input trace.

    Reported violations are replayed through {!Cyclesim} with a real
    {!Monitor} attached before being returned; a trace the monitor does
    not flag raises (it would mean the property compilation or the
    encoding is wrong). *)

type property = { name : string; bad : Signal.t }
(** [bad] must be 1 bit wide and live on the circuit's signal graph. *)

val derive_properties : Circuit.t -> property list
(** Mirror of {!Monitor.add_auto}: for every [X_req]/[X_ack] signal
    pair, "ack asserted with no request pending" and "request dropped
    before acknowledge"; for every [X_count]/[X_empty] pair (plus
    [X_full] when present), "empty flag inconsistent with count",
    "full and empty asserted together", and "occupancy stepped by more
    than one". History registers (previous-cycle values) are built into
    the property logic. *)

type violation = {
  property : string;
  at : int;  (** cycle index of the first violated frame *)
  trace : (string * Bits.t) list list;
      (** one input assignment per cycle, 0 .. [at] *)
}

type result =
  | Holds of int  (** no violation up to this depth *)
  | Violation of violation
  | Unknown of string
      (** the solver budget ran out before the search finished; the
          string records how many frames were fully searched *)

val check :
  ?trace:Hwpat_obs.Trace.t ->
  ?metrics:Hwpat_obs.Metrics.t ->
  ?budget:Solver.budget ->
  ?interrupt:(unit -> unit) ->
  ?depth:int ->
  Circuit.t ->
  property list ->
  result
(** Unroll from the power-on state and search each frame for a
    violated property. Default [depth = 20] frames.  Frames are
    encoded through {!Strash}, so structure repeated across the
    unrolling is blasted once.  [budget] (default unlimited) caps each
    per-frame solve; on exhaustion the result is an honest [Unknown] —
    deterministically, since the caps count solver operations rather
    than wall clock.  [interrupt] is polled from inside SAT search and
    may raise to abandon the check.  [trace] records one [bmc] span;
    [metrics] accumulates the solver's statistics under [solver.*]
    (see {!Solver.stats}) when the check completes — but {e not} when
    the [interrupt] hook aborts it, so a supervisor's retry cannot
    double-merge the aborted attempt's partial counts. *)

val check_auto :
  ?trace:Hwpat_obs.Trace.t ->
  ?metrics:Hwpat_obs.Metrics.t ->
  ?budget:Solver.budget ->
  ?interrupt:(unit -> unit) ->
  ?depth:int ->
  Circuit.t ->
  result
(** [check] over [derive_properties]; raises [Invalid_argument] if the
    circuit has no monitored signal pairs at all (a vacuous proof). *)
