(** A self-contained CDCL SAT solver.

    Pure OCaml, no external dependencies: conflict-driven clause
    learning with two-watched-literal propagation, first-UIP learning,
    VSIDS-style activity branching, phase saving and geometric
    restarts. Small by design — the instances the formal layer
    produces (miters of structurally similar netlists plus candidate
    invariants) are propagation-dominated, so the classic algorithm
    with no clause-database reduction is plenty.

    The search configuration is fixed: the first restart after 100
    conflicts, each later interval 1.5 times the last, VSIDS activity
    decay 0.95, and every variable's saved phase initially false.
    Restart pacing and decay are exact arithmetic on operation counts,
    never wall clock, so an instance replays the same search in every
    run, process and job count.

    Literals follow the DIMACS convention: a variable is a positive
    integer and its negation is the negative integer. The solver is
    incremental: clauses may be added between [solve] calls and
    [solve ~assumptions] checks satisfiability under a temporary set of
    unit assumptions without committing them. *)

type t

type lit = int
(** Non-zero; [-l] is the negation of [l]. *)

type result = Sat | Unsat | Unknown
(** [Unknown]: the solve call exhausted its {!budget} before deciding.
    Never returned without a budget. *)

type budget = { max_conflicts : int; max_propagations : int }
(** Per-[solve]-call caps on solver work; a cap of 0 (or negative)
    means unlimited.  The caps count operations, not wall clock, so a
    budget-limited solve is deterministic: the same instance trips (or
    completes) at exactly the same point in every run, process and job
    count. *)

val no_budget : budget
(** Both caps unlimited (the default). *)

val create : unit -> t

val new_var : t -> lit
(** Fresh variable, returned as its positive literal. *)

val true_lit : t -> lit
(** A literal constrained true in every model (for constant folding in
    encoders). Its negation is constant false. *)

val add_clause : t -> lit list -> unit
(** Add a clause over existing literals. Tautologies are dropped;
    an empty (or all-false-at-level-0) clause makes the formula
    unsatisfiable for all future [solve] calls.  Inside an open
    {!push} scope the clause is scoped: it participates in every
    [solve] until the scope is popped, then disappears. *)

(** {1 Assumption scopes (push/pop-style incremental solving)}

    [push] opens a scope; clauses added while it is open are guarded
    by a fresh activation literal that every [solve] call assumes
    automatically, and [pop] retires them for good by asserting the
    literal's negation.  Clauses {e learned} while a scope is open
    inherit the guard through conflict analysis, so popping a scope
    soundly retires the lemmas that depended on it while every lemma
    derived from unguarded clauses is retained — the mechanism by
    which the BMC-sweep → candidate-induction → k-induction ladder
    shares one solver and keeps its accumulated clauses across
    stages.  Scopes nest and pop in LIFO order. *)

val push : t -> unit
val pop : t -> unit
(** Raises [Invalid_argument] with no open scope. *)

val scope_depth : t -> int
(** Number of currently open scopes. *)

val solve :
  ?assumptions:lit list -> ?budget:budget -> ?interrupt:(unit -> unit) -> t -> result
(** Decide satisfiability of the added clauses, under the given
    temporary assumptions (each forced true for this call only).

    [budget] bounds the work of this call; on exhaustion the solver
    backtracks to level 0 and returns [Unknown] (the solver stays
    usable for further [add_clause]/[solve] calls).  [interrupt] is
    polled once per search-loop iteration and may raise to abandon the
    call — the hook for {!Hwpat_core.Supervise}-style wall-clock
    watchdogs; after an interrupt raise the solver is still usable
    (the next call backtracks to level 0 first). *)

val value : t -> lit -> bool
(** Model value of a literal after a [Sat] answer. Unconstrained
    variables read as false. *)

val num_vars : t -> int
val num_clauses : t -> int

val num_conflicts : t -> int
(** Total conflicts across all [solve] calls (a work measure). *)

(** {1 Search statistics} *)

type stats = {
  decisions : int;  (** branching decisions *)
  propagations : int;  (** unit propagations (implied enqueues) *)
  conflicts : int;  (** same counter as {!num_conflicts} *)
  restarts : int;  (** geometric restarts taken *)
  unknowns : int;  (** solve calls that gave up on budget exhaustion *)
  learned_clauses : int;  (** non-unit learned clauses recorded *)
  learned_literals : int;  (** total literals across learned clauses *)
  learned_size_buckets : int array;
      (** learned-clause sizes in log2 buckets (index 0 unused, index
          [k >= 1] counts sizes in [2^(k-1) .. 2^k - 1]) — the exact
          [Hwpat_obs.Metrics.bucket_of] convention, including the
          bucket count and the clamp into the last bucket, so merging
          into a metrics histogram is index-for-index correct *)
}

val stats : t -> stats
(** Cumulative across all [solve] calls on this solver (a copy). *)

val size_bucket : int -> int
(** The bucket of {!stats.learned_size_buckets} a given size counts
    into.  Must agree with [Hwpat_obs.Metrics.bucket_of] on every
    input (pinned by a cross-library regression test); exposed so the
    agreement is testable without reflection on private state. *)
