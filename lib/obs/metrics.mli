(** Monotonic counters, float gauges and log2-bucket histograms.

    Like {!Trace}, a metrics registry is either {!null} (every hook
    returns immediately) or active; active registries are guarded by
    one mutex so shards can record concurrently.

    Histograms use fixed log2 buckets: an observation [v] lands in
    bucket 0 when [v <= 0] and in bucket [floor(log2 v) + 1]
    otherwise — i.e. bucket [k >= 1] covers [2^(k-1) .. 2^k - 1].
    {!bucket_of} is exposed so producers that pre-aggregate (the SAT
    solver keeps its learned-clause-size buckets without depending on
    this library) use the same convention and can be merged in with
    {!add_histogram}. *)

type t

val buckets : int
(** Number of histogram buckets (observations clamp into the last). *)

val bucket_of : int -> int
(** The bucket index an observation falls in; total in [0..buckets-1].
    The zero/negative boundary is part of the contract: every [v <= 0]
    (zero durations, negative deltas from clock skew or underflowing
    subtraction) lands in bucket 0, never a negative index; [v = 1] is
    the first value in bucket 1. *)

val null : t
val create : unit -> t
val enabled : t -> bool

val incr : t -> ?by:int -> string -> unit
(** Add [by] (default 1) to a monotonic counter, creating it at 0. *)

val gauge : t -> string -> float -> unit
(** Set a float gauge (last write wins). *)

val observe : t -> string -> int -> unit
(** Record one observation into a histogram. *)

val add_histogram : t -> string -> count:int -> sum:int -> int array -> unit
(** Merge pre-aggregated buckets (the {!bucket_of} convention; arrays
    shorter or longer than {!buckets} are padded / clamped into the
    last bucket) into a histogram. *)

val counter_value : t -> string -> int
(** Current value of a counter; 0 when absent or {!null}. *)

val to_json : t -> string
(** [{"counters": {...}, "gauges": {...}, "histograms": {name:
    {"count": n, "sum": s, "buckets": [...]}}}] with trailing zero
    buckets trimmed, one line of compact {!Json} plus a newline.  Keys
    are emitted in sorted order so the output is deterministic. *)

val summary : t -> string
(** Human-readable listing of every counter, gauge and histogram. *)

val write_file : t -> string -> unit
(** [to_json] to a file, atomically ({!Json.to_file}). *)
