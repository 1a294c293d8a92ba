type t = {
  name : string;
  inputs : (string * Signal.t) list;
  outputs : (string * Signal.t) list;
  schedule : Signal.t list;
  memories : Signal.memory list;
}

module Int_set = Set.Make (Int)
module Int_map = Map.Make (Int)

(* Dependencies that must be evaluated before a node within one
   combinational settle. Registers and synchronous memory reads output
   stored state, so they have none. *)
let comb_deps s =
  match Signal.prim s with
  | Signal.Reg _ | Signal.Mem_read_sync _ -> []
  | Signal.Mem_read_async { addr; _ } -> [ addr ]
  | _ -> Signal.deps s

let collect_reachable outputs =
  let seen = ref Int_set.empty in
  let nodes = ref [] in
  let rec visit s =
    if not (Int_set.mem (Signal.uid s) !seen) then begin
      seen := Int_set.add (Signal.uid s) !seen;
      (match Signal.prim s with
      | Signal.Wire { driver = None } ->
        invalid_arg
          (Fmt.str "Circuit: undriven wire %a" Signal.pp s)
      | _ -> ());
      List.iter visit (Signal.deps s);
      nodes := s :: !nodes
    end
  in
  List.iter visit outputs;
  List.rev !nodes

(* Topological sort over combinational edges; detects cycles. *)
let schedule_nodes nodes =
  let state = Hashtbl.create 97 in
  (* 0 = visiting, 1 = done *)
  let order = ref [] in
  let rec visit s =
    match Hashtbl.find_opt state (Signal.uid s) with
    | Some 1 -> ()
    | Some _ ->
      invalid_arg (Fmt.str "Circuit: combinational cycle through %a" Signal.pp s)
    | None ->
      Hashtbl.add state (Signal.uid s) 0;
      List.iter visit (comb_deps s);
      Hashtbl.replace state (Signal.uid s) 1;
      order := s :: !order
  in
  List.iter visit nodes;
  List.rev !order

let create_exn ~name outputs =
  (match outputs with
  | [] -> invalid_arg "Circuit.create_exn: no outputs"
  | _ -> ());
  let output_names = List.map fst outputs in
  let sorted = List.sort_uniq String.compare output_names in
  if List.length sorted <> List.length output_names then
    invalid_arg "Circuit.create_exn: duplicate output name";
  let nodes = collect_reachable (List.map snd outputs) in
  let schedule = schedule_nodes nodes in
  let inputs =
    List.filter_map
      (fun s ->
        match Signal.prim s with Signal.Input n -> Some (n, s) | _ -> None)
      nodes
  in
  let by_name = Hashtbl.create 17 in
  List.iter
    (fun (n, s) ->
      match Hashtbl.find_opt by_name n with
      | Some s' when Signal.uid s' <> Signal.uid s ->
        invalid_arg (Printf.sprintf "Circuit.create_exn: duplicate input name %s" n)
      | _ -> Hashtbl.replace by_name n s)
    inputs;
  let memories =
    let seen = ref Int_set.empty in
    List.filter_map
      (fun s ->
        match Signal.prim s with
        | Signal.Mem_read_async { memory; _ } | Signal.Mem_read_sync { memory; _ } ->
          let uid = Signal.memory_uid memory in
          if Int_set.mem uid !seen then None
          else begin
            seen := Int_set.add uid !seen;
            Some memory
          end
        | _ -> None)
      nodes
  in
  let inputs = List.sort (fun (a, _) (b, _) -> String.compare a b) inputs in
  { name; inputs; outputs; schedule; memories }

let name t = t.name
let inputs t = t.inputs
let outputs t = t.outputs

let find_port kind ports port_name =
  match List.assoc_opt port_name ports with
  | Some s -> s
  | None ->
    invalid_arg (Printf.sprintf "Circuit: no %s port named %s" kind port_name)

let find_input t n = find_port "input" t.inputs n
let find_output t n = find_port "output" t.outputs n
let signals t = t.schedule
let memories t = t.memories

let registers t =
  List.filter (fun s -> match Signal.prim s with Signal.Reg _ -> true | _ -> false)
    t.schedule

type names = {
  signal : Signal.t -> string;
  memory : Signal.memory -> string;
}

let names t =
  let positions key items =
    let tbl = Hashtbl.create 97 in
    List.iteri (fun i x -> Hashtbl.replace tbl (key x) i) items;
    fun x -> Hashtbl.find tbl (key x)
  in
  let signal_pos = positions Signal.uid t.schedule in
  let memory_pos = positions Signal.memory_uid t.memories in
  {
    signal =
      (fun s ->
        let base = match Signal.names s with n :: _ -> n | [] -> "s" in
        Printf.sprintf "%s_%d" base (signal_pos s));
    memory =
      (fun m -> Printf.sprintf "%s_%d" (Signal.memory_name m) (memory_pos m));
  }
