(** Nestable timed spans, exported as Chrome [trace_event] JSON.

    A trace is either {!null} — every hook is a near-no-op, so
    instrumented hot paths cost nothing when profiling is off — or an
    active recorder.  Spans nest per {e domain}: each domain keeps its
    own stack of open spans (via [Domain.DLS]), so the workers of
    {!Hwpat_core.Parallel} record into separate lanes of the same
    trace without coordinating, and the shared event list is the only
    synchronised state (one mutex acquisition per completed span).

    The export target is the Chrome trace-event format
    ([chrome://tracing] / Perfetto): each completed span becomes a
    complete event ([ph:"X"]) with microsecond [ts]/[dur] and
    [tid] = domain id, so shard utilization and straggler shards are
    visible as lanes. *)

type t

type arg =
  | Int of int
  | Float of float
  | String of string
  | Bool of bool

val null : t
(** The disabled trace: every operation returns immediately. *)

val create : unit -> t
(** A fresh active trace; timestamps are relative to this call. *)

val enabled : t -> bool

val span : t -> ?args:(string * arg) list -> string -> (unit -> 'a) -> 'a
(** [span t name f] runs [f ()] inside a timed span.  Spans opened by
    [f] (on the same domain) nest under it.  The span is recorded even
    if [f] raises; the exception is re-raised with its backtrace. *)

val instant : t -> ?args:(string * arg) list -> string -> unit
(** A zero-duration marker event ([ph:"i"]). *)

val annotate : t -> string -> arg -> unit
(** Attach an argument to the innermost span currently open on the
    calling domain; silently ignored when no span is open (or the
    trace is {!null}).  Later annotations with the same key win. *)

val counter : t -> string -> (string * float) list -> unit
(** A counter sample ([ph:"C"]) — series name to value, plotted as a
    stacked chart by the trace viewer. *)

val to_chrome_json : t -> string
(** The whole trace as [{"traceEvents": [...]}], one line of compact
    {!Json} plus a newline.  For {!null} this is an empty event
    list. *)

val summary : t -> string
(** Human-readable tree: spans aggregated by path (parent/child names
    joined with [/]), with call counts and total wall time, children
    indented under parents. *)

val write_file : t -> string -> unit
(** [to_chrome_json] to a file, atomically ({!Json.to_file}). *)
