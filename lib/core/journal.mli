(** Crash-safe checkpoint journal for resumable campaigns.

    Line-oriented JSON on disk ({!Hwpat_obs.Json}, one object per
    line): a header line binding the file to one campaign
    configuration (the [config] fingerprint — design, seed, fault
    count, frame size, …), then one record per completed shard,
    appended and flushed as each shard finishes.  Record keys are the
    campaigns' uid-independent shard descriptions
    ({!Hwpat_rtl.Fault.describe_event_in}, design-point labels,
    prove-obligation names), so a journal written by one process —
    serial or sharded, at any job count — replays in any other.

    Crash safety: records are appended and flushed one line at a time,
    so a SIGKILL tears at most the final line; the loader stops at the
    first unparseable line and keeps everything before it.  On open
    the journal is compacted through the atomic tmp+rename writer
    (dropping any torn tail) and reopened for appending.

    [record] takes the registry mutex, so shards running on different
    domains may journal concurrently. *)

type t

exception Config_mismatch of { path : string; expected : string; found : string }
(** Raised by {!start} when [resume] finds a journal whose header was
    written by a different campaign configuration — resuming it would
    silently mix incompatible results. *)

val start : path:string -> config:string -> resume:bool -> t
(** Open (or create) the journal at [path] for the campaign described
    by [config].  With [resume = false] any existing file is
    truncated.  With [resume = true] an existing file is loaded first:
    the header must match [config] (else {!Config_mismatch}), every
    intact record becomes available through {!find}, and a torn final
    line is dropped.  A missing file is simply created fresh.
    Raises [Failure] if the file exists but is not a checkpoint
    journal at all. *)

val find : t -> string -> string option
(** The journaled payload for a shard key, if that shard completed in
    a previous (or the current) run. *)

val record : t -> key:string -> string -> unit
(** Append one completed-shard record and flush it to disk.  Key and
    [data] are stored as JSON strings on one line, so any string is
    safe (newlines included).  Thread-safe. *)

val resumed : t -> int
(** Number of distinct completed shards loaded from disk at {!start}
    time (0 unless resuming). *)

val note : t -> string option
(** A human-readable anomaly worth surfacing, or [None]. Currently set
    when [resume = true] found a zero-length checkpoint file: that is a
    crash before even the header flushed, so the run proceeds exactly
    like a fresh one (no {!Config_mismatch} — there is no config to
    mismatch), and the note says so. Also echoed to stderr at {!start}
    time so CLI users see it. *)

val completed : t -> int
(** Total distinct completed shards known (loaded + recorded). *)

val path : t -> string

val close : t -> unit
(** Flushes and closes the append channel; further {!record} calls
    are ignored. *)
