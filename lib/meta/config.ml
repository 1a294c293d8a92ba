type t = {
  instance_name : string;
  kind : Metamodel.container_kind;
  target : Metamodel.target;
  elem_width : int;
  depth : int;
  bus_width : int;
  addr_width : int;
  ops_used : Metamodel.operation list;
  wait_states : int;
  parity : bool;
  op_timeout : int option;
}

let make ?bus_width ?addr_width ?ops_used ?(wait_states = 1) ?(parity = false)
    ?op_timeout ~instance_name ~kind ~target ~elem_width ~depth () =
  if elem_width < 1 then invalid_arg "Config.make: elem_width must be >= 1";
  if depth < 1 then invalid_arg "Config.make: depth must be >= 1";
  let bus_width = match bus_width with Some w -> w | None -> elem_width in
  let addr_width =
    match addr_width with
    | Some w -> w
    | None -> Hwpat_rtl.Util.address_bits depth
  in
  if bus_width < 1 then invalid_arg "Config.make: bus_width must be >= 1";
  if addr_width < 1 then invalid_arg "Config.make: addr_width must be >= 1";
  if wait_states < 0 then invalid_arg "Config.make: wait_states must be >= 0";
  if elem_width mod bus_width <> 0 then
    invalid_arg "Config.make: elem_width must be a multiple of bus_width";
  if not (List.mem target (Metamodel.legal_targets kind)) then
    invalid_arg
      (Printf.sprintf "Config.make: %s cannot be implemented over %s"
         (Metamodel.container_name kind)
         (Metamodel.target_name target));
  let supported = Metamodel.operations kind in
  let ops_used = match ops_used with Some ops -> ops | None -> supported in
  List.iter
    (fun op ->
      if not (List.mem op supported) then
        invalid_arg
          (Printf.sprintf "Config.make: %s does not support operation %s"
             (Metamodel.container_name kind)
             (Metamodel.operation_name op)))
    ops_used;
  let require_protection p =
    if not (List.mem p (Metamodel.legal_protections target)) then
      invalid_arg
        (Printf.sprintf "Config.make: %s protection is not available on %s"
           (Metamodel.protection_name p)
           (Metamodel.target_name target))
  in
  if parity then require_protection Metamodel.Parity;
  (match op_timeout with
  | Some n ->
    require_protection Metamodel.Op_watchdog;
    if n < 1 then invalid_arg "Config.make: op_timeout must be >= 1"
  | None -> ());
  {
    instance_name;
    kind;
    target;
    elem_width;
    depth;
    bus_width;
    addr_width;
    ops_used;
    wait_states;
    parity;
    op_timeout;
  }

let protected t = t.parity || t.op_timeout <> None

let words_per_element t = t.elem_width / t.bus_width

let entity_name t =
  Printf.sprintf "%s_%s" t.instance_name (Metamodel.target_name t.target)

let describe t =
  let protection =
    match (t.parity, t.op_timeout) with
    | false, None -> ""
    | true, None -> ", parity"
    | false, Some n -> Printf.sprintf ", watchdog %d" n
    | true, Some n -> Printf.sprintf ", parity + watchdog %d" n
  in
  Printf.sprintf "%s: %s over %s, %d x %d bits (bus %d, ops %s%s)"
    t.instance_name
    (Metamodel.container_name t.kind)
    (Metamodel.target_name t.target)
    t.depth t.elem_width t.bus_width
    (String.concat "," (List.map Metamodel.operation_name t.ops_used))
    protection
