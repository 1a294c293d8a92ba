open Hwpat_rtl
open Hwpat_rtl.Signal
open Hwpat_meta

(* Config.make only builds legal kind/target pairs; a hand-built
   record may not be one. *)
let illegal (cfg : Config.t) =
  invalid_arg
    (Printf.sprintf "Elaborate: %s cannot be implemented over %s"
       (Metamodel.container_name cfg.kind)
       (Metamodel.target_name cfg.target))

(* Each kind's outputs, in port order.  [port op name width] is a live
   input while [op] survives pruning and constant zero otherwise; the
   stream ports, [addr] and [key] are never pruned, since any retained
   operation needs them. *)
let outputs (cfg : Config.t) ~port =
  let depth = cfg.depth and width = cfg.elem_width in
  let name = cfg.instance_name and wait_states = cfg.wait_states in
  let status (s : Container_intf.seq) =
    [ ("empty", s.empty); ("full", s.full); ("size", s.size) ]
  in
  let open Metamodel in
  match cfg.kind with
  | Queue | Stack ->
    let d =
      {
        Container_intf.get_req = port Read "get_req" 1;
        put_req = port Write "put_req" 1;
        put_data = port Write "put_data" width;
      }
    in
    let s =
      match (cfg.kind, cfg.target) with
      | Queue, Fifo_core -> Queue_c.over_fifo ~name ~depth ~width d
      | Queue, Block_ram -> Queue_c.over_bram ~name ~depth ~width d
      | Queue, Ext_sram -> Queue_c.over_sram ~name ~depth ~width ~wait_states d
      | Stack, Lifo_core -> Stack_c.over_lifo ~name ~depth ~width d
      | Stack, Block_ram -> Stack_c.over_bram ~name ~depth ~width d
      | Stack, Ext_sram -> Stack_c.over_sram ~name ~depth ~width ~wait_states d
      | _ -> illegal cfg
    in
    [ ("get_ack", s.get_ack); ("get_data", s.get_data); ("put_ack", s.put_ack) ]
    @ status s
  | Read_buffer ->
    let get_req = port Read "get_req" 1 in
    let stream =
      { Read_buffer.px_valid = input "px_valid" 1; px_data = input "px_data" width }
    in
    let queue (r : Read_buffer.t) = (r.seq, r.px_ready) in
    let s, px_ready =
      match cfg.target with
      | Fifo_core -> queue (Read_buffer.over_fifo ~name ~depth ~width ~stream ~get_req ())
      | Block_ram -> queue (Read_buffer.over_bram ~name ~depth ~width ~stream ~get_req ())
      | Ext_sram ->
        queue (Read_buffer.over_sram ~name ~depth ~width ~wait_states ~stream ~get_req ())
      | Line_buffer3 ->
        (* The column device buffers lines of [depth] pixels. *)
        let c =
          Read_buffer.over_line_buffer ~name ~image_width:depth ~max_rows:depth
            ~width ~stream ~get_req ()
        in
        (c.col_seq, c.col_px_ready)
      | Lifo_core -> illegal cfg
    in
    [ ("get_ack", s.get_ack); ("get_data", s.get_data); ("px_ready", px_ready) ]
    @ status s
  | Write_buffer ->
    let out_ready = input "out_ready" 1 in
    let put_req = port Write "put_req" 1 and put_data = port Write "put_data" width in
    let w =
      match cfg.target with
      | Fifo_core ->
        Write_buffer.over_fifo ~name ~depth ~width ~out_ready ~put_req ~put_data ()
      | Block_ram ->
        Write_buffer.over_bram ~name ~depth ~width ~out_ready ~put_req ~put_data ()
      | Ext_sram ->
        Write_buffer.over_sram ~name ~depth ~width ~wait_states ~out_ready ~put_req
          ~put_data ()
      | Lifo_core | Line_buffer3 -> illegal cfg
    in
    [ ("put_ack", w.seq.put_ack); ("out_valid", w.stream.out_valid);
      ("out_data", w.stream.out_data) ]
    @ status w.seq
  | Vector ->
    let d =
      {
        Container_intf.read_req = port Read "read_req" 1;
        write_req = port Write "write_req" 1;
        addr = uresize (input "addr" cfg.addr_width) (Util.address_bits depth);
        write_data = port Write "write_data" width;
      }
    in
    let r =
      match cfg.target with
      | Block_ram -> Vector_c.over_bram ~name ~length:depth ~width d
      | Ext_sram -> Vector_c.over_sram ~name ~length:depth ~width ~wait_states d
      | _ -> illegal cfg
    in
    [ ("read_ack", r.read_ack); ("read_data", r.read_data);
      ("write_ack", r.write_ack); ("length", r.length) ]
  | Assoc_array ->
    (* The key is as wide as the entity's [a_key] port; insert and
       delete are both write operations. *)
    let key_width = cfg.addr_width and value_width = width in
    let d =
      {
        Container_intf.lookup_req = port Read "lookup_req" 1;
        insert_req = port Write "insert_req" 1;
        delete_req = port Write "delete_req" 1;
        key = input "key" key_width;
        value_in = port Write "value_in" width;
      }
    in
    let a =
      match cfg.target with
      | Block_ram -> Assoc_array.over_bram ~name ~slots:depth ~key_width ~value_width d
      | Ext_sram ->
        Assoc_array.over_sram ~name ~slots:depth ~key_width ~value_width ~wait_states d
      | _ -> illegal cfg
    in
    [ ("lookup_ack", a.lookup_ack); ("lookup_found", a.lookup_found);
      ("lookup_data", a.lookup_data); ("insert_ack", a.insert_ack);
      ("insert_ok", a.insert_ok); ("delete_ack", a.delete_ack);
      ("delete_found", a.delete_found); ("occupancy", a.occupancy) ]

let build ?(trace = Hwpat_obs.Trace.null) (cfg : Config.t) ~prune =
  let module Trace = Hwpat_obs.Trace in
  Trace.span trace "elaborate"
    ~args:
      [
        ("entity", Trace.String (Config.entity_name cfg));
        ("kind", Trace.String (Metamodel.container_name cfg.kind));
        ("prune", Trace.Bool prune);
      ]
  @@ fun () ->
  (* Mirror the code generator's pruning decision as annotations: which
     operations keep live driver ports, which get tied to zero. *)
  if Trace.enabled trace && prune then begin
    let cut =
      List.filter
        (fun op -> not (List.mem op cfg.ops_used))
        (Metamodel.operations cfg.kind)
    in
    let names ops = String.concat "," (List.map Metamodel.operation_name ops) in
    Trace.annotate trace "ops_kept" (Trace.String (names cfg.ops_used));
    Trace.annotate trace "ops_tied_off" (Trace.String (names cut))
  end;
  let port op name width =
    if (not prune) || List.mem op cfg.ops_used then input name width
    else zero width
  in
  Circuit.create_exn
    ~name:(Config.entity_name cfg ^ if prune then "_pruned" else "_full")
    (outputs cfg ~port)

let full ?trace cfg = build ?trace cfg ~prune:false

let pruned ?trace cfg =
  Optimize.circuit (build ?trace cfg ~prune:true)
