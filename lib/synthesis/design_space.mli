(** Design-space characterisation (§3.4 of the paper).

    Since components are generated automatically, every container can
    be generated for every physical target and parameter range and
    characterised for area, access time and power. Given a set of
    constraints, the feasible candidates delimit the region of
    interest; the Pareto front over (area, latency, power) ranks them. *)

type candidate = {
  label : string;             (** e.g. "queue/fifo/8x512" *)
  container : string;
  target : string;
  elem_width : int;
  depth : int;
  luts : int;
  ffs : int;
  brams : int;
  access_cycles : float;      (** average cycles per element access *)
  fmax_mhz : float;
  power_mw : float;
  measured : bool;
      (** false when the characterisation workload tripped its ack
          guard: the access/power figures are untrustworthy and the
          candidate is excluded from {!feasible} and {!pareto_front} *)
}

type constraints = {
  max_luts : int option;
  max_brams : int option;
  max_access_cycles : float option;
  min_fmax_mhz : float option;
  max_power_mw : float option;
}

val no_constraints : constraints

val unmeasurable : candidate list -> candidate list
(** The candidates whose measurement timed out ([not measured]), for
    reporting alongside the ranked table. *)

val feasible : constraints -> candidate list -> candidate list
(** Candidates meeting every constraint. Unmeasurable candidates are
    never feasible. *)

val dominates : candidate -> candidate -> bool
(** [dominates a b] when [a] is no worse than [b] on area (LUTs +
    BRAM-weighted), access latency (cycles / fmax) and power, and
    strictly better on at least one. *)

val pareto_front : candidate list -> candidate list
(** Non-dominated measured candidates, preserving input order. *)

val region_of_interest : constraints -> candidate list -> candidate list
(** Feasible candidates that are also Pareto-optimal. *)

val to_table : candidate list -> string
(** Render candidates as an aligned text table; unmeasurable points
    show [timeout] in the cycles-per-access column. *)

val json_of_candidates : candidate list -> Hwpat_obs.Json.t

val to_json : candidate list -> string
(** Machine-readable rendering (a JSON array, one object per
    candidate, [null] access/power for unmeasurable points), one line,
    so equal candidate lists render to identical bytes — the
    sharded-sweep determinism tests compare these. *)
