(** Closed netlists with named ports.

    A circuit is built from a list of named output wires. All inputs
    reachable from the outputs become the circuit's input ports. *)

type t

val create_exn : name:string -> (string * Signal.t) list -> t
(** [create_exn ~name outputs] closes the graph reachable from
    [outputs]. Raises [Invalid_argument] if: an output name is
    duplicated, two distinct input nodes share a name, an input width
    conflicts, a wire has no driver, or the combinational graph is
    cyclic. Each output signal is wrapped in a named wire if needed. *)

val name : t -> string

val inputs : t -> (string * Signal.t) list
(** Input ports, sorted by name. *)

val outputs : t -> (string * Signal.t) list
(** Output ports in creation order. *)

val find_input : t -> string -> Signal.t
val find_output : t -> string -> Signal.t

val signals : t -> Signal.t list
(** Every node reachable from the outputs (including through register
    and memory write-port dependencies), in dependency-respecting
    order: a node appears after all its combinational dependencies. *)

val memories : t -> Signal.memory list
(** Distinct memories used by the circuit, in first-use order. *)

val registers : t -> Signal.t list
(** All [Reg] nodes. *)

(** {1 Names for the netlist back-ends} *)

type names = {
  signal : Signal.t -> string;
      (** first user name (or [s]) suffixed with the node's position
          in {!signals} *)
  memory : Signal.memory -> string;
      (** memory name suffixed with its position in {!memories} *)
}

val names : t -> names
(** Internal names for {!Vhdl} and {!Verilog}, numbered per circuit at
    emission time.  They depend only on the circuit's structure, not on
    the process-global uids, so one design emits the same text however
    many signals the process built before it. *)
