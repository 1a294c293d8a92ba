open Hwpat_rtl
open Hwpat_video

(** Seeded fault-injection campaigns over the video systems.

    Each fault from a deterministic {!Fault.random_campaign} runs from
    power-on state with runtime {!Monitor}s auto-attached; the run is
    compared against the fault-free reference and classified:

    - [Detected] — a monitor flagged a protocol violation, or the
      design's own [err] output went high;
    - [Masked] — the run completed with bit-identical output and no
      flag: the fault had no observable effect;
    - [Silent] — wrong output or a hang with no flag raised (the
      dangerous case protection hardware is meant to eliminate);
    - [Unfinished] — the fault's batch never produced a verdict:
      supervision retries were exhausted (watchdog timeout, transient
      failure) or the campaign was cancelled before the batch ran.  Unfinished
      faults are reported explicitly, excluded from {!coverage}, and
      never journaled — a resumed campaign runs them again. *)

type outcome = Detected | Masked | Silent | Unfinished

val outcome_name : outcome -> string

type result = {
  description : string;
      (** uid-independent rendering of the fault event against the
          campaign's master circuit ({!Fault.describe_event_in}):
          stable across reruns, processes and job counts — also the
          checkpoint-journal identity of the shard *)
  outcome : outcome;
  detail : string option;
      (** the first monitor violation (pre-rendered), or the reason a
          shard is [Unfinished] *)
  err_flag : bool;  (** the design's [err] output, if it has one *)
  completed : bool;  (** collected every expected pixel in budget *)
  cycles : int;
}

type summary = {
  design : string;
  seed : int;
  monitors : int;  (** monitors auto-attached by naming convention *)
  baseline_cycles : int;  (** fault-free run length *)
  results : result list;
}

val count : summary -> outcome -> int

val coverage : summary -> float
(** detected / (detected + silent); masked and unfinished faults are
    excluded since they have no (known) effect to detect. 1.0 when
    nothing was detectable. *)

val run_once :
  ?engine:Cyclesim.engine ->
  ?sim:Cyclesim.t ->
  ?events:Fault.event list ->
  budget:int ->
  frame:Frame.t ->
  Circuit.t ->
  int list * int * Monitor.t * int * bool
(** One simulation of a stream-copy circuit: collected pixels, cycles
    run, the monitor, monitors attached, and the [err] output state.
    [engine] selects the simulation engine (default compiled). [sim]
    reuses an existing simulator of the circuit instead of creating
    one — it is {!Cyclesim.reset} first, so the run is bit-identical
    to one on a fresh simulator. A campaign runs its fault-free
    baseline through it; a single-fault run on the [Reference] engine
    is the independent oracle the tests hold each campaign lane to. *)

val run_campaign :
  ?trace:Hwpat_obs.Trace.t ->
  ?metrics:Hwpat_obs.Metrics.t ->
  ?plan:Cyclesim.plan ->
  ?lanes:int ->
  ?jobs:int ->
  ?policy:Supervise.policy ->
  ?cancel:Parallel.token ->
  ?checkpoint:string ->
  ?resume:bool ->
  ?seed:int ->
  ?faults:int ->
  ?frame_width:int ->
  ?frame_height:int ->
  build:(unit -> Circuit.t) ->
  design:string ->
  unit ->
  summary
(** Defaults: [seed = 1], [faults = 20], 8x8 frame, [lanes = 64].
    Deterministic in [seed]. The circuit is elaborated and compiled
    once into a shared {!Cyclesim.plan} — or, when [plan] is given (the
    serve daemon's netlist cache), the supplied plan is used directly,
    its circuit is the campaign master, and [build] is never called.
    Raises [Invalid_argument] if [plan] is a [Reference] plan, if
    [lanes] is outside 1..64, or if the design fails or trips a monitor
    fault-free.

    Faults run on the bit-parallel batched engine ({!Simbatch}):
    pending faults are grouped [lanes] at a time into one simulation
    whose machine words carry one fault per bit-lane, so a campaign of
    N faults runs ceil(N/lanes) simulations; [lanes = 1] runs one fault
    per simulation. Each batch is one shard, sharded across [jobs]
    domains (default [Parallel.default_jobs ()]), each worker reusing
    one batched instance of the plan across its batches with a reset in
    between. Each lane's trajectory is bit-identical to a {!run_once}
    of its fault alone, results merge in fault order, and every fault
    starts from power-on state, so the summary — {!render} and
    {!summary_to_json} included — is bit-identical for any [lanes] and
    any [jobs].

    Execution is supervised ({!Supervise.run_shards_local}): [policy]
    sets per-batch watchdog deadlines and retry counts, [cancel] stops
    further batches from starting, and a batch that never completes
    reports every one of its faults as [Unfinished].  [checkpoint]
    journals each fault of a batch as the batch completes; with
    [resume] faults already journaled under a matching campaign
    configuration (design, seed, fault count, frame size — enforced,
    see {!Journal.Config_mismatch}; the lane count is not part of it)
    are skipped and their recorded results replayed, so an
    interrupted-then-resumed campaign renders byte-identically to an
    uninterrupted one. *)

val designs : (string * (unit -> Circuit.t)) list
(** Named builds for the CLI and benchmark harness: the Table 3
    saa2vga variants plus the protected design (and its
    fault-configurable twin). *)

val design_names : string list
val find_design : string -> unit -> Circuit.t

val render : summary -> string

val json_of_summary : summary -> Hwpat_obs.Json.t

val summary_to_json : summary -> string
(** Machine-readable summary, one line; byte-stable across reruns and
    job counts (the parallel determinism tests compare these bytes). *)

val protection_overhead :
  ?board:Hwpat_synthesis.Board.t -> unit ->
  Hwpat_synthesis.Resource_report.comparison
(** Resource cost of the generated protection hardware: the SRAM
    pattern design vs {!Saa2vga.build_protected}, through the Table 3
    estimation pipeline. *)
