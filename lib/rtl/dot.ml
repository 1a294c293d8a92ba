let label s =
  let base =
    match Signal.prim s with
    | Signal.Const b -> Printf.sprintf "#%s" (Bits.to_string b)
    | Signal.Input n -> n
    | Signal.Op2 (op, _, _) -> (
      match op with
      | Signal.Add -> "+"
      | Signal.Sub -> "-"
      | Signal.Mul -> "*"
      | Signal.And -> "&"
      | Signal.Or -> "|"
      | Signal.Xor -> "^"
      | Signal.Eq -> "=="
      | Signal.Lt -> "<")
    | Signal.Not _ -> "~"
    | Signal.Concat _ -> "cat"
    | Signal.Select { high; low; _ } -> Printf.sprintf "[%d:%d]" high low
    | Signal.Mux _ -> "mux"
    | Signal.Reg _ -> "reg"
    | Signal.Mem_read_async _ -> "ram(async)"
    | Signal.Mem_read_sync _ -> "ram(sync)"
    | Signal.Wire _ -> "wire"
  in
  let named =
    match Signal.names s with name :: _ -> name ^ "\\n" ^ base | [] -> base
  in
  Printf.sprintf "%s\\n%db" named (Signal.width s)

let shape s =
  match Signal.prim s with
  | Signal.Reg _ | Signal.Mem_read_sync _ -> "box"
  | Signal.Input _ -> "oval"
  | Signal.Const _ -> "plaintext"
  | _ -> "ellipse"

let to_string circuit =
  (* Nodes are numbered by position, not uid, so the text depends only
     on the circuit. *)
  let pos = Hashtbl.create 97 in
  List.iteri (fun i s -> Hashtbl.replace pos (Signal.uid s) i) (Circuit.signals circuit);
  let node_id s = Printf.sprintf "n%d" (Hashtbl.find pos (Signal.uid s)) in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf
    (Printf.sprintf "digraph %s {\n  rankdir=LR;\n  node [fontsize=10];\n"
       (Circuit.name circuit));
  List.iter
    (fun s ->
      Buffer.add_string buf
        (Printf.sprintf "  %s [label=\"%s\", shape=%s];\n" (node_id s) (label s)
           (shape s)))
    (Circuit.signals circuit);
  List.iter
    (fun s ->
      List.iter
        (fun d ->
          Buffer.add_string buf
            (Printf.sprintf "  %s -> %s;\n" (node_id d) (node_id s)))
        (Signal.deps s))
    (Circuit.signals circuit);
  List.iteri
    (fun i (name, s) ->
      Buffer.add_string buf
        (Printf.sprintf
           "  out%d [label=\"%s\", shape=oval, style=bold];\n  %s -> out%d;\n" i
           name (node_id s) i))
    (Circuit.outputs circuit);
  Buffer.add_string buf "}\n";
  Buffer.contents buf

let write_file circuit path = Util.write_file path (to_string circuit)
