(** Generation parameters for one concrete container or iterator
    instance — the input to the metaprogramming code generator. *)

type t = {
  instance_name : string;             (** e.g. "rbuffer" *)
  kind : Metamodel.container_kind;
  target : Metamodel.target;
  elem_width : int;                   (** element (base type) width in bits *)
  depth : int;                        (** capacity in elements *)
  bus_width : int;                    (** physical data bus width *)
  addr_width : int;                   (** physical address bus width *)
  ops_used : Metamodel.operation list; (** operations to generate (pruning) *)
  wait_states : int;                  (** external SRAM only *)
  parity : bool;                      (** per-word parity + [err] output *)
  op_timeout : int option;            (** watchdog window on the memory
                                          handshake + [timeout] output *)
}

val make :
  ?bus_width:int ->
  ?addr_width:int ->
  ?ops_used:Metamodel.operation list ->
  ?wait_states:int ->
  ?parity:bool ->
  ?op_timeout:int ->
  instance_name:string ->
  kind:Metamodel.container_kind ->
  target:Metamodel.target ->
  elem_width:int ->
  depth:int ->
  unit ->
  t
(** Defaults: [bus_width = elem_width], [addr_width] wide enough for
    [depth], [ops_used] = every operation the container supports,
    [wait_states = 1], no protection hardware.

    Raises [Invalid_argument] if [elem_width], [depth], [bus_width]
    or [addr_width] is below 1 or [wait_states] below 0, if the target
    is not legal for the container kind (per
    {!Metamodel.legal_targets}), if an operation in [ops_used] is not
    supported by the kind, if [elem_width] is not a multiple of
    [bus_width], or if a requested protection is not legal for the
    target (per {!Metamodel.legal_protections}). *)

val protected : t -> bool
(** True when any protection hardware is configured. *)

val words_per_element : t -> int
(** How many physical bus transfers one element needs (§3.3's pixel
    format discussion: a 24-bit pixel over an 8-bit bus takes 3). *)

val entity_name : t -> string
(** "<instance>_<target>", as in the paper's [rbuffer_fifo] /
    [rbuffer_sram]. *)

val describe : t -> string
