(** Runtime protocol monitors attached to a {!Cyclesim} run.

    A monitor watches settled signal values each cycle and records
    violations of the library's interface conventions:

    - {!add_handshake} — the req/ack rules documented in the device
      layer: a request is held until acknowledged, its payload stays
      stable while pending, and an ack never fires with no request.
    - {!add_iterator} — per-operation handshakes plus mutual exclusion
      between operations that must never fire together.
    - {!add_fifo} — occupancy invariants: [empty] tracks a zero count,
      the count moves by at most one element per cycle, never exceeds
      the declared capacity, and [full]/[empty] never hold together.
    - {!add_auto} — scans the circuit's signal names and attaches the
      above wherever the [_req]/[_ack] and [_count]/[_empty]/[_full]
      naming conventions appear.

    Drive the simulation as usual and call {!sample} once after every
    [Cyclesim.cycle]; {!violations} then lists each breach with the
    first offending cycle and signal, and {!vcd_window} renders the
    last few cycles of every watched signal as VCD text for waveform
    inspection. *)

type t

type violation = {
  cycle : int;  (** Monitor tick (number of {!sample} calls before it). *)
  monitor : string;  (** Name given when the checker was attached. *)
  signal : string;  (** Role of the offending signal, e.g. ["ack"]. *)
  message : string;
}

val pp_violation : Format.formatter -> violation -> unit

val create : ?window:int -> Cyclesim.t -> t
(** [window] bounds how many cycles of watched-signal history are
    retained for {!vcd_window} (default 48). *)

val add_handshake :
  t -> name:string -> ?payload:Signal.t -> req:Signal.t -> ack:Signal.t -> unit -> unit

val add_iterator :
  t ->
  name:string ->
  ?mutex:(string * Signal.t * Signal.t) list ->
  ops:(string * Signal.t * Signal.t) list ->
  unit ->
  unit
(** [ops] is a list of [(op_name, req, ack)] triples; [mutex] lists
    [(label, a, b)] pairs of signals that must never be high together
    (e.g. an iterator's inc and dec requests). *)

val add_fifo :
  t ->
  name:string ->
  ?depth:int ->
  ?full:Signal.t ->
  count:Signal.t ->
  empty:Signal.t ->
  unit ->
  unit

val add_auto : t -> int
(** Attach monitors by naming convention over the whole circuit;
    returns the number of monitors attached. *)

val sample : t -> unit
(** Run all checks against the current settled values and record the
    watched signals. Call once after each [Cyclesim.cycle]. *)

val ticks : t -> int
(** Number of {!sample} calls so far. *)

val violations : t -> violation list
(** All recorded violations, oldest first. *)

val first_violation : t -> violation option
val ok : t -> bool

val vcd_window : t -> string

(** Plane-level monitors over a whole {!Simbatch} batch: the same
    checkers as above, evaluated once per cycle for all lanes at once
    on the engine's bit-planes. Per-lane work happens only when a
    rule's violation mask is non-zero, so a violation-free cycle costs
    a few dozen word operations regardless of lane count. Each lane's
    violation list — cycle, ordering, and message text — is identical
    to what a scalar monitor over that lane would have recorded; no
    waveform history is retained. *)
module Batch : sig
  type bt

  val create : Simbatch.t -> bt

  val add_handshake :
    bt ->
    name:string ->
    ?payload:Signal.t ->
    req:Signal.t ->
    ack:Signal.t ->
    unit ->
    unit

  val add_fifo :
    bt ->
    name:string ->
    ?depth:int ->
    ?full:Signal.t ->
    count:Signal.t ->
    empty:Signal.t ->
    unit ->
    unit

  val add_auto : bt -> int
  (** Same naming-convention scan (and attach order) as the scalar
      {!add_auto}. *)

  val sample : bt -> active:int64 -> cycle:int -> unit
  (** Run all checks for the lanes in [active] against the settled
      values of cycle [cycle]. Call once after each [Simbatch.cycle]
      with the mask of lanes whose single-fault run would still be
      sampling. *)

  val violations : bt -> lane:int -> violation list
  (** Oldest first, like the scalar {!violations}. *)

  val first_violation : bt -> lane:int -> violation option
  val ok : bt -> lane:int -> bool
end
(** The retained history window rendered as VCD text. *)
