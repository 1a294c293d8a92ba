(** The metamodels behind the basic component library (§3.2).

    A metamodel captures what the paper's code generator needs to know
    about a component family: which operations exist, which physical
    targets can implement it, and which iterator kinds it supports.
    Tables 1 and 2 of the paper are encoded here and everything else
    (signal-level builders, VHDL templates, the capability matrices
    printed by the benchmark harness) derives from these definitions. *)

(** The six containers of Table 1. *)
type container_kind =
  | Stack
  | Queue
  | Read_buffer
  | Write_buffer
  | Vector
  | Assoc_array

(** The iterator operations of Table 2. *)
type operation = Inc | Dec | Read | Write | Index

(** Physical targets a container can be mapped onto (§3.4). *)
type target =
  | Fifo_core   (** on-chip FIFO primitive *)
  | Lifo_core   (** on-chip LIFO primitive *)
  | Block_ram   (** on-chip dual-port RAM *)
  | Ext_sram    (** external asynchronous SRAM behind a controller *)
  | Line_buffer3 (** the specialised 3-line video buffer (blur, §4) *)

type access = Random_access | Sequential_access
type traversal = Forward | Backward | Both

(** One side of Table 1: whether a container supports reading
    (input) or writing (output), and how it can be traversed. *)
type capability = {
  random_input : bool;
  random_output : bool;
  sequential_input : traversal option;
  sequential_output : traversal option;
}

val capabilities : container_kind -> capability
(** Table 1, row by row. *)

val legal_targets : container_kind -> target list
(** §3.4: every container maps onto RAM (block RAM or external SRAM);
    stacks additionally onto LIFO cores; queues and read/write buffers
    additionally onto FIFO cores; read buffers also onto the 3-line
    buffer for windowed algorithms. *)

val operations : container_kind -> operation list
(** Operations an iterator over this container exposes (Table 2 applied
    to the container's capabilities). *)

val operation_applicability : operation -> string
(** The "Applicability" column of Table 2, as printed in the paper. *)

val operation_meaning : operation -> string
(** The "Meaning" column of Table 2. *)

val container_name : container_kind -> string
val target_name : target -> string
val operation_name : operation -> string

val container_short_name : container_kind -> string
(** The name the CLI, the serve protocol and the sweep labels print:
    stack, queue, rbuffer, wbuffer, vector, assoc. Targets print as
    {!target_name}. *)

val container_of_short_name : string -> container_kind option
(** Case-insensitive; accepts the short names and the aliases
    lifo-stack, fifo-queue, read-buffer, write-buffer, assoc-array. *)

val target_of_short_name : string -> target option
(** Case-insensitive: fifo, lifo, bram, sram, linebuf3 (alias
    linebuf). *)

(** Optional protection hardware the generator can weave into a mapped
    container (error detection and graceful degradation). *)
type protection = Parity | Op_watchdog

val legal_protections : target -> protection list
(** Parity applies to the RAM-backed targets (the stored word can be
    widened by one bit); the operation watchdog applies only to the
    external SRAM, whose multi-cycle acknowledge can be lost. *)

val protection_name : protection -> string
val protection_meaning : protection -> string

val all_containers : container_kind list
val all_operations : operation list
val all_targets : target list
val all_protections : protection list

val table1 : string
(** Rendered capability matrix in the layout of the paper's Table 1. *)

val table2 : string
(** Rendered operation table in the layout of the paper's Table 2. *)
