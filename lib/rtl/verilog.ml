let clock_name = "clk"

let is_sequential s =
  match Signal.prim s with
  | Signal.Reg _ | Signal.Mem_read_sync _ -> true
  | _ -> false

let has_state circuit =
  List.exists is_sequential (Circuit.signals circuit)
  || Circuit.memories circuit <> []

let range width = if width = 1 then "" else Printf.sprintf "[%d:0] " (width - 1)

let const_literal bits =
  Printf.sprintf "%d'b%s" (Bits.width bits) (Bits.to_string bits)

(* Inputs by port name, constants inline, everything else through its
   declared net ([Circuit.names]). *)
let ref_of (nm : Circuit.names) s =
  match Signal.prim s with
  | Signal.Input name -> name
  | Signal.Const b -> const_literal b
  | _ -> nm.signal s

let emit buffer fmt = Printf.ksprintf (Buffer.add_string buffer) fmt

let op2_rhs nm op a b =
  let sym =
    match op with
    | Signal.Add -> "+"
    | Signal.Sub -> "-"
    | Signal.Mul -> "*"
    | Signal.And -> "&"
    | Signal.Or -> "|"
    | Signal.Xor -> "^"
    | Signal.Eq -> "=="
    | Signal.Lt -> "<"
  in
  Printf.sprintf "%s %s %s" (ref_of nm a) sym (ref_of nm b)

let emit_comb (nm : Circuit.names) buf s =
  let ref_of = ref_of nm in
  let lhs = nm.signal s in
  match Signal.prim s with
  | Signal.Const _ | Signal.Input _ -> ()
  | Signal.Op2 (op, a, b) -> emit buf "  assign %s = %s;\n" lhs (op2_rhs nm op a b)
  | Signal.Not a -> emit buf "  assign %s = ~%s;\n" lhs (ref_of a)
  | Signal.Concat parts ->
    emit buf "  assign %s = {%s};\n" lhs (String.concat ", " (List.map ref_of parts))
  | Signal.Select { src; high; low } ->
    if Signal.width src = 1 then emit buf "  assign %s = %s;\n" lhs (ref_of src)
    else emit buf "  assign %s = %s[%d:%d];\n" lhs (ref_of src) high low
  | Signal.Mux { select; cases } ->
    let n = List.length cases in
    let rec chain i = function
      | [] -> assert false
      | [ last ] -> ref_of last
      | c :: rest ->
        Printf.sprintf "%s == %d ? %s : %s" (ref_of select) i (ref_of c)
          (chain (i + 1) rest)
    in
    ignore n;
    emit buf "  assign %s = %s;\n" lhs (chain 0 cases)
  | Signal.Mem_read_async { memory; addr } ->
    emit buf "  assign %s = %s[%s];\n" lhs (nm.memory memory) (ref_of addr)
  | Signal.Wire { driver = Some d } -> emit buf "  assign %s = %s;\n" lhs (ref_of d)
  | Signal.Wire { driver = None } -> assert false
  | Signal.Reg _ | Signal.Mem_read_sync _ -> ()

let emit_seq (nm : Circuit.names) buf s =
  let ref_of = ref_of nm in
  match Signal.prim s with
  | Signal.Reg { d; enable; clear; clear_to; _ } ->
    let lhs = nm.signal s in
    emit buf "  always @(posedge %s) begin\n" clock_name;
    (match (clear, enable) with
    | Some c, Some e ->
      emit buf "    if (%s) %s <= %s;\n" (ref_of c) lhs (const_literal clear_to);
      emit buf "    else if (%s) %s <= %s;\n" (ref_of e) lhs (ref_of d)
    | Some c, None ->
      emit buf "    if (%s) %s <= %s;\n" (ref_of c) lhs (const_literal clear_to);
      emit buf "    else %s <= %s;\n" lhs (ref_of d)
    | None, Some e -> emit buf "    if (%s) %s <= %s;\n" (ref_of e) lhs (ref_of d)
    | None, None -> emit buf "    %s <= %s;\n" lhs (ref_of d));
    emit buf "  end\n\n"
  | Signal.Mem_read_sync { memory; addr; enable } ->
    let lhs = nm.signal s in
    emit buf "  always @(posedge %s) begin\n" clock_name;
    (match enable with
    | Some e ->
      emit buf "    if (%s) %s <= %s[%s];\n" (ref_of e) lhs (nm.memory memory)
        (ref_of addr)
    | None -> emit buf "    %s <= %s[%s];\n" lhs (nm.memory memory) (ref_of addr));
    emit buf "  end\n\n"
  | _ -> ()

let emit_memory (nm : Circuit.names) buf m =
  let ref_of = ref_of nm in
  emit buf "  reg %s%s [0:%d];\n" (range (Signal.memory_width m)) (nm.memory m)
    (Signal.memory_size m - 1);
  let ports = Signal.memory_write_ports m in
  if ports <> [] then begin
    emit buf "  always @(posedge %s) begin\n" clock_name;
    List.iter
      (fun (enable, addr, data) ->
        emit buf "    if (%s) %s[%s] <= %s;\n" (ref_of enable) (nm.memory m)
          (ref_of addr) (ref_of data))
      ports;
    emit buf "  end\n\n"
  end

let to_string circuit =
  let nm = Circuit.names circuit in
  let buf = Buffer.create 4096 in
  let ports = ref [] in
  if has_state circuit then ports := [ clock_name ];
  List.iter (fun (n, _) -> ports := n :: !ports) (Circuit.inputs circuit);
  List.iter (fun (n, _) -> ports := n :: !ports) (Circuit.outputs circuit);
  emit buf "module %s (%s);\n" (Circuit.name circuit)
    (String.concat ", " (List.rev !ports));
  if has_state circuit then emit buf "  input %s;\n" clock_name;
  List.iter
    (fun (n, s) -> emit buf "  input %s%s;\n" (range (Signal.width s)) n)
    (Circuit.inputs circuit);
  List.iter
    (fun (n, s) -> emit buf "  output %s%s;\n" (range (Signal.width s)) n)
    (Circuit.outputs circuit);
  emit buf "\n";
  List.iter
    (fun s ->
      match Signal.prim s with
      | Signal.Input _ | Signal.Const _ -> ()
      | Signal.Reg _ | Signal.Mem_read_sync _ ->
        emit buf "  reg %s%s;\n" (range (Signal.width s)) (nm.signal s)
      | _ -> emit buf "  wire %s%s;\n" (range (Signal.width s)) (nm.signal s))
    (Circuit.signals circuit);
  List.iter (emit_memory nm buf) (Circuit.memories circuit);
  emit buf "\n";
  List.iter (emit_comb nm buf) (Circuit.signals circuit);
  emit buf "\n";
  List.iter (emit_seq nm buf) (Circuit.signals circuit);
  List.iter
    (fun (n, s) -> emit buf "  assign %s = %s;\n" n (ref_of nm s))
    (Circuit.outputs circuit);
  emit buf "endmodule\n";
  Buffer.contents buf

let output fmt circuit = Format.pp_print_string fmt (to_string circuit)
