open Hwpat_meta

let of_short_name what valid of_short_name s =
  match of_short_name s with
  | Some x -> x
  | None -> Protocol.invalid_params "unknown %s %S (valid: %s)" what s valid

let container_of_string =
  of_short_name "container" "stack, queue, rbuffer, wbuffer, vector, assoc"
    Metamodel.container_of_short_name

let target_of_string =
  of_short_name "target" "fifo, lifo, bram, sram, linebuf3"
    Metamodel.target_of_short_name

let operation_of_string s =
  match String.lowercase_ascii s with
  | "inc" -> Metamodel.Inc
  | "dec" -> Metamodel.Dec
  | "read" -> Metamodel.Read
  | "write" -> Metamodel.Write
  | "index" -> Metamodel.Index
  | _ ->
    Protocol.invalid_params
      "unknown operation %S (valid: inc, dec, read, write, index)" s

(* The canonical operation order is the metamodel's own (Table 2);
   request order and duplicates must not leak into the cache key or
   the generated text. *)
let normalize_ops ops =
  List.filter (fun op -> List.mem op ops) Metamodel.all_operations

let config_of_params params =
  let str key = Json.get_string_opt params key in
  let container =
    match str "container" with
    | Some s -> container_of_string s
    | None -> Protocol.invalid_params "missing container"
  in
  let target =
    match str "target" with
    | Some s -> target_of_string s
    | None -> Protocol.invalid_params "missing target"
  in
  let ops_used =
    match Json.get_list_opt params "ops" with
    | None -> None
    | Some items ->
      let names =
        List.map
          (function
            | Json.String s -> operation_of_string s
            | _ -> Protocol.invalid_params "ops must be a list of strings")
          items
      in
      Some (normalize_ops names)
  in
  try
    Config.make
      ?bus_width:(Json.get_int_opt params "bus")
      ?addr_width:(Json.get_int_opt params "addr_width")
      ?ops_used
      ~wait_states:(Json.get_int params "wait_states" ~default:1)
      ~parity:(Json.get_bool params "parity" ~default:false)
      ?op_timeout:(Json.get_int_opt params "op_timeout")
      ~instance_name:(Json.get_string params "instance" ~default:"gen")
      ~kind:container ~target
      ~elem_width:(Json.get_int params "width" ~default:8)
      ~depth:(Json.get_int params "depth" ~default:512)
      ()
  with Invalid_argument msg -> raise (Protocol.Error (Invalid_params, msg))

(* Every resolved field in one fixed order.  Operation names join on
   '+' (they never contain one); container names can contain spaces
   ("read buffer") but the key is never parsed back, only compared. *)
let config_key (c : Config.t) =
  let ops =
    String.concat "+" (List.map Metamodel.operation_name c.ops_used)
  in
  Printf.sprintf
    "cfg/%s/%s/inst=%s/w=%d/d=%d/bus=%d/addr=%d/ops=%s/ws=%d/par=%b/to=%s"
    (Metamodel.container_name c.kind)
    (Metamodel.target_name c.target)
    c.instance_name c.elem_width c.depth c.bus_width c.addr_width ops
    c.wait_states c.parity
    (match c.op_timeout with None -> "none" | Some t -> string_of_int t)

let plan_key ~design ~style ~frame_w ~frame_h ~engine =
  Printf.sprintf "plan/%s/%s/%dx%d/%s"
    (String.lowercase_ascii design)
    (String.lowercase_ascii style)
    frame_w frame_h
    (match engine with
    | Hwpat_rtl.Cyclesim.Reference -> "reference"
    | Hwpat_rtl.Cyclesim.Compiled -> "compiled")
