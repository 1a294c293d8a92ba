type container_kind =
  | Stack
  | Queue
  | Read_buffer
  | Write_buffer
  | Vector
  | Assoc_array

type operation = Inc | Dec | Read | Write | Index

type target = Fifo_core | Lifo_core | Block_ram | Ext_sram | Line_buffer3

type access = Random_access | Sequential_access
type traversal = Forward | Backward | Both

type capability = {
  random_input : bool;
  random_output : bool;
  sequential_input : traversal option;
  sequential_output : traversal option;
}

(* Table 1. A stack is read forward (popping walks down the stored
   sequence) and written backward; a queue streams forward on both
   sides; buffers are one-directional; a vector supports everything;
   an associative array only random access. *)
let capabilities = function
  | Stack ->
    {
      random_input = false;
      random_output = false;
      sequential_input = Some Forward;
      sequential_output = Some Backward;
    }
  | Queue ->
    {
      random_input = false;
      random_output = false;
      sequential_input = Some Forward;
      sequential_output = Some Forward;
    }
  | Read_buffer ->
    {
      random_input = false;
      random_output = false;
      sequential_input = Some Forward;
      sequential_output = None;
    }
  | Write_buffer ->
    {
      random_input = false;
      random_output = false;
      sequential_input = None;
      sequential_output = Some Forward;
    }
  | Vector ->
    {
      random_input = true;
      random_output = true;
      sequential_input = Some Both;
      sequential_output = Some Both;
    }
  | Assoc_array ->
    {
      random_input = true;
      random_output = true;
      sequential_input = None;
      sequential_output = None;
    }

let legal_targets = function
  | Stack -> [ Lifo_core; Block_ram; Ext_sram ]
  | Queue -> [ Fifo_core; Block_ram; Ext_sram ]
  | Read_buffer -> [ Fifo_core; Block_ram; Ext_sram; Line_buffer3 ]
  | Write_buffer -> [ Fifo_core; Block_ram; Ext_sram ]
  | Vector -> [ Block_ram; Ext_sram ]
  | Assoc_array -> [ Block_ram; Ext_sram ]

let operations kind =
  let c = capabilities kind in
  let seq_ops =
    match (c.sequential_input, c.sequential_output) with
    | None, None -> []
    | _ ->
      let fwd t = match t with Some Forward | Some Both -> true | _ -> false in
      let bwd t = match t with Some Backward | Some Both -> true | _ -> false in
      (if fwd c.sequential_input || fwd c.sequential_output then [ Inc ] else [])
      @ if bwd c.sequential_input || bwd c.sequential_output then [ Dec ] else []
  in
  let rw =
    (if c.random_input || c.sequential_input <> None then [ Read ] else [])
    @ if c.random_output || c.sequential_output <> None then [ Write ] else []
  in
  let idx = if c.random_input || c.random_output then [ Index ] else [] in
  seq_ops @ rw @ idx

let operation_meaning = function
  | Inc -> "move forward"
  | Dec -> "move backwards"
  | Read -> "get the element"
  | Write -> "put the element"
  | Index -> "set the current position"

let operation_applicability = function
  | Inc -> "F / F, B"
  | Dec -> "B / F, B"
  | Read -> "random / F, B"
  | Write -> "random / F, B"
  | Index -> "random"

let container_name = function
  | Stack -> "stack"
  | Queue -> "queue"
  | Read_buffer -> "read buffer"
  | Write_buffer -> "write buffer"
  | Vector -> "vector"
  | Assoc_array -> "assoc. array"

let target_name = function
  | Fifo_core -> "fifo"
  | Lifo_core -> "lifo"
  | Block_ram -> "bram"
  | Ext_sram -> "sram"
  | Line_buffer3 -> "linebuf3"

(* The short names the CLI, the serve protocol and the sweep labels
   use, then the aliases each also accepts.  The first name of each
   entry is the one printed. *)
let container_short_names =
  [ (Stack, [ "stack"; "lifo-stack" ]); (Queue, [ "queue"; "fifo-queue" ]);
    (Read_buffer, [ "rbuffer"; "read-buffer" ]);
    (Write_buffer, [ "wbuffer"; "write-buffer" ]); (Vector, [ "vector" ]);
    (Assoc_array, [ "assoc"; "assoc-array" ]) ]

let target_short_names =
  [ (Fifo_core, [ "fifo" ]); (Lifo_core, [ "lifo" ]); (Block_ram, [ "bram" ]);
    (Ext_sram, [ "sram" ]); (Line_buffer3, [ "linebuf3"; "linebuf" ]) ]

let of_short_name table s =
  let s = String.lowercase_ascii s in
  List.find_map (fun (x, names) -> if List.mem s names then Some x else None) table

let container_short_name k = List.hd (List.assoc k container_short_names)
let container_of_short_name = of_short_name container_short_names
let target_of_short_name = of_short_name target_short_names

let operation_name = function
  | Inc -> "inc"
  | Dec -> "dec"
  | Read -> "read"
  | Write -> "write"
  | Index -> "index"

let all_containers = [ Stack; Queue; Read_buffer; Write_buffer; Vector; Assoc_array ]
let all_operations = [ Inc; Dec; Read; Write; Index ]
let all_targets = [ Fifo_core; Lifo_core; Block_ram; Ext_sram; Line_buffer3 ]

(* Optional protection hardware the generator can weave into a mapped
   container. Parity needs widenable word storage, so it applies to the
   RAM-backed targets; the operation watchdog guards a multi-cycle
   acknowledge, which only the external SRAM path has. *)
type protection = Parity | Op_watchdog

let protection_name = function
  | Parity -> "parity"
  | Op_watchdog -> "watchdog"

let protection_meaning = function
  | Parity -> "per-word parity bit, checked on read, sticky error flag"
  | Op_watchdog ->
    "bounded retries on the memory handshake, then forced ack + error"

let legal_protections = function
  | Block_ram -> [ Parity ]
  | Ext_sram -> [ Parity; Op_watchdog ]
  | Fifo_core | Lifo_core | Line_buffer3 -> []

let all_protections = [ Parity; Op_watchdog ]

let traversal_cell = function
  | None -> "-"
  | Some Forward -> "F"
  | Some Backward -> "B"
  | Some Both -> "F, B"

let random_cell b = if b then "~" else "-"

let table1 =
  let header =
    [
      Printf.sprintf "%-14s | %-6s %-6s | %-10s %-10s" "Containers" "Random" ""
        "Sequential" "";
      Printf.sprintf "%-14s | %-6s %-6s | %-10s %-10s" "" "Input" "Output" "Input"
        "Output";
      String.make 56 '-';
    ]
  in
  let rows =
    List.map
      (fun k ->
        let c = capabilities k in
        Printf.sprintf "%-14s | %-6s %-6s | %-10s %-10s" (container_name k)
          (random_cell c.random_input) (random_cell c.random_output)
          (traversal_cell c.sequential_input)
          (traversal_cell c.sequential_output))
      all_containers
  in
  String.concat "\n" (header @ rows)

let table2 =
  let header =
    [
      Printf.sprintf "%-9s | %-24s | %-14s" "Operation" "Meaning" "Applicability";
      String.make 53 '-';
    ]
  in
  let rows =
    List.map
      (fun op ->
        Printf.sprintf "%-9s | %-24s | %-14s" (operation_name op)
          (operation_meaning op)
          (operation_applicability op))
      all_operations
  in
  String.concat "\n" (header @ rows)
