(** Design-space characterisation of generated containers (§3.4).

    "Since components are generated automatically, it is feasible to
    generate versions of each one for every physical target and range
    of configuration parameters" — this module does exactly that:
    build each container for each legal target and parameter point,
    estimate area and timing, measure access latency and switching
    activity in simulation, and return {!Hwpat_synthesis.Design_space}
    candidates. *)

type point = Hwpat_meta.Config.t
(** A sweep point is a container config; {!characterize} measures
    [Elaborate.full] of it. *)

val point :
  ?wait_states:int ->
  Hwpat_meta.Metamodel.container_kind ->
  Hwpat_meta.Metamodel.target ->
  elem_width:int ->
  depth:int ->
  point
(** [Config.make] with every operation, no protection, [wait_states]
    (default 1) and the kind's short name as the instance name.
    Raises [Invalid_argument] with [Config.make]'s message on an
    illegal point. *)

val default_points : point list
(** Queues and stacks over each legal target, widths 8 and 16, depths
    64 and 512, SRAM at 0–2 wait states; a vector and an associative
    array over block RAM and SRAM. *)

val point_label : point -> string
(** "container/target/WxD" (plus "/wsN" for SRAM targets) in short
    names: the candidate label, and the point's checkpoint-journal identity. *)

val measure :
  ?check:(unit -> unit) ->
  Hwpat_meta.Metamodel.container_kind ->
  Hwpat_rtl.Cyclesim.t ->
  float * Hwpat_synthesis.Power.monitor * bool
(** Drive the put/get ping-pong workload against a simulator of the
    kind's full circuit, through that kind's put, get and index ports:
    (cycles per access, power monitor, timed out). Each
    handshake is bounded by a 200-cycle ack guard; when one trips the
    workload is aborted, cycles-per-access is [infinity] and the third
    component is [true] — the point must be reported as unmeasurable,
    never ranked. [check] is called once per cycle — the supervision
    watchdog hook. *)

val selfcheck : ?lanes:int -> ?cycles:int -> ?seed:int -> point -> int
(** Differential validation of the bit-parallel batched engine
    ({!Hwpat_rtl.Simbatch}) on this point's full circuit: one
    batched simulation carries [lanes] (default 64) independent random
    stimulus streams, and the naive tree-walking interpreter replays
    every lane as the oracle.  Every output port of every lane is
    compared on every one of [cycles] (default 32) clock edges; the
    stimulus is deterministic in [seed].  Returns the number of
    per-lane port comparisons performed; raises [Failure] naming the
    point, lane, cycle and port on the first divergence.  The
    characterisation numbers themselves ({!measure}, {!sweep}) still
    come from the scalar engine — this check pins the batched engine
    to the trusted baseline on realistic container circuits. *)

val characterize :
  ?check:(unit -> unit) -> point -> Hwpat_synthesis.Design_space.candidate
(** Elaborates the point's full circuit, estimates it, runs the
    put/get workload and fills in every candidate field. A point whose
    measurement times out comes back with [measured = false]; a read
    buffer over [Line_buffer3] always does, since only a get takes its
    stream's pixels. *)

val sweep :
  ?trace:Hwpat_obs.Trace.t ->
  ?metrics:Hwpat_obs.Metrics.t ->
  ?jobs:int ->
  ?policy:Supervise.policy ->
  ?cancel:Parallel.token ->
  ?checkpoint:string ->
  ?resume:bool ->
  ?points:point list -> unit ->
  Hwpat_synthesis.Design_space.candidate list
(** Characterise every point, sharded one point per job across [jobs]
    domains (default [Parallel.default_jobs ()]). Results are merged
    in point order: the candidate list is identical for any [jobs].
    [trace] (default disabled) records one span per point on its
    worker domain's lane.

    Execution is supervised ({!Supervise.run_shards}): [policy] sets
    per-point watchdog deadlines and retry counts, [cancel] stops
    further points from starting, and points the supervisor gives up
    on come back as unmeasurable candidates ([measured = false]),
    excluded from ranking like an ack-guard trip. [checkpoint]
    journals each measured point to the given path; with [resume]
    points already journaled under a matching point list are skipped
    and their recorded measurements replayed byte-identically. *)

val region_report :
  constraints:Hwpat_synthesis.Design_space.constraints ->
  Hwpat_synthesis.Design_space.candidate list ->
  string
(** Feasible + Pareto table rendering; unmeasurable points are listed
    and excluded from the ranking. *)
