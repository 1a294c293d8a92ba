open Hwpat_rtl

(** Structural hashing: the prover's one frame encoder.

    {!frame} encodes a single time frame of a circuit: given literal
    vectors for the input ports and for every state element (register,
    synchronous-read latch, memory word), it produces literal vectors
    for every signal's settled value, for the output ports, and for the
    next value of every state element — the settle-then-clock-edge
    semantics of {!Cyclesim}.  Equivalence checking ({!Equiv}),
    k-induction and bounded model checking ({!Bmc}) all reduce to
    instantiating frames and constraining the seams.

    Frames are built over hash-consed AND/XOR/MUX nodes with
    complemented edges, not straight into CNF: constant propagation and
    two-level rewriting run at construction, structurally identical
    subgraphs become the {e same node} — the shared logic of the two
    sides of an equivalence miter, repeated subcircuits inside one side
    (address decoders, per-row blur taps) — and each node is emitted to
    CNF at most once per manager lifetime, lazily, only when some
    constraint actually reaches it.  The literal algebra is closed under
    negation at zero cost ([snot] flips a bit), so the rewriting rules
    fire across the miter seam as well as within one side.

    Covered primitives (everything the simulation engines execute):
    constants, inputs, [Add]/[Sub]/[Mul]/[And]/[Or]/[Xor]/[Eq]/[Lt],
    [Not], [Concat], [Select], [Mux] with the {!Signal.mux_index}
    out-of-range clamp to the last case, registers (clear priority over
    enable, power-on [init]), asynchronous and synchronous (read-first)
    memory reads with out-of-range addresses reading zero, and memory
    write ports applied in attachment order (later ports win) with
    out-of-range writes ignored.  Literal vectors are LSB-first. *)

(** {1 State elements} *)

(** One piece of persistent state, in the fixed order of
    {!state_elements}. *)
type state_elt =
  | Reg_state of Signal.t  (** a [Reg] node's stored value *)
  | Read_state of Signal.t  (** a [Mem_read_sync] node's latch *)
  | Mem_word of Signal.memory * int  (** one word of a memory *)

val state_elements : Circuit.t -> state_elt array
(** All state of a circuit in a deterministic order: registers, then
    synchronous-read latches, then memory words. *)

val elt_width : state_elt -> int

val elt_init : state_elt -> Bits.t
(** Power-on value: a register's [init]; zeros for read latches and
    memory words (as {!Cyclesim.reset} establishes). *)

val elt_label : state_elt -> string
(** Human-readable identification for diagnostics. *)

val elt_key : state_elt -> int * int * int
(** Stable structural key of a state element (kind tag, owning signal
    or memory uid, word index) — usable as a hashtable key where the
    element itself is not (signals may be cyclic through wires). *)

(** {1 Literals and gates} *)

type t
(** A strash manager bound to a {!Solver.t}.  All literals below are
    relative to one manager. *)

type lit = int
(** An AIG edge: node index with a complement bit.  Distinct from
    {!Solver.lit}; convert with {!to_solver_lit} /
    {!of_solver_lit}. *)

val create : Solver.t -> t
val solver : t -> Solver.t

val lit_true : lit
val lit_false : lit

val snot : lit -> lit
(** Complement, free (no node is created). *)

val sand : t -> lit -> lit -> lit
val sor : t -> lit -> lit -> lit
val sxor : t -> lit -> lit -> lit

val smux : t -> lit -> lit -> lit -> lit
(** [smux t c d1 d0] is [c ? d1 : d0]. *)

val and_list : t -> lit list -> lit
val or_list : t -> lit list -> lit

val fresh : t -> lit
(** A fresh unconstrained leaf (backed by a fresh solver variable). *)

val fresh_vector : t -> int -> lit array
val constant : t -> Bits.t -> lit array

val of_solver_lit : t -> Solver.lit -> lit
(** Wrap an existing solver literal as a leaf; the same variable
    always yields the same leaf node. *)

val to_solver_lit : t -> lit -> Solver.lit
(** CNF literal equisatisfiable with the cone of [lit], emitting the
    Tseitin clauses of any not-yet-emitted nodes in the cone (each
    node at most once per manager, ever). *)

(** {1 Vector helpers} — word-level operators over AIG literals,
    LSB-first, with the {!Cyclesim} semantics bit for bit. *)

val lits_equal : t -> lit array -> lit array -> lit
val bool_of_vec : t -> lit array -> lit
val eq_const : t -> lit array -> int -> lit
val add_vec : t -> ?cin:lit -> lit array -> lit array -> lit array
val sub_vec : t -> lit array -> lit array -> lit array
val mul_vec : t -> lit array -> lit array -> lit array
val lt_vec : t -> lit array -> lit array -> lit
val mux_cases : t -> lit array -> lit array list -> lit array

(** {1 Model evaluation} *)

val value : t -> lit -> bool
(** Value under the solver's current model after a [Sat] answer.
    Emitted nodes read their CNF variable; unemitted nodes evaluate
    structurally, so any vector built through the manager may be
    probed. *)

val model_bits : t -> lit array -> Bits.t

(** {1 Frames} *)

type frame = {
  value : Signal.t -> lit array;
      (** settled value of any signal in the circuit this frame *)
  outputs : (string * lit array) list;
  next : lit array array;
      (** post-edge state, indexed like {!state_elements} *)
}

val frame : t -> Circuit.t -> inputs:(string -> lit array) -> state:(int -> lit array) -> frame
(** [frame t circuit ~inputs ~state] builds one time frame.
    [inputs name] supplies the literal vector of an input port;
    [state i] the current value of [(state_elements circuit).(i)].
    Repeated structure within the frame, across frames, and across
    circuits sharing the manager is represented once. *)

val num_nodes : t -> int
(** Number of live AIG nodes (a sharing measure for diagnostics). *)
