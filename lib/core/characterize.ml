open Hwpat_rtl
open Hwpat_meta
open Hwpat_synthesis

type point = Config.t

let point ?(wait_states = 1) kind target ~elem_width ~depth =
  Config.make ~instance_name:(Metamodel.container_short_name kind) ~kind
    ~target ~elem_width ~depth ~wait_states ()

let default_points =
  let base kind target =
    List.concat_map
      (fun elem_width ->
        List.map (fun depth -> point kind target ~elem_width ~depth) [ 64; 512 ])
      [ 8; 16 ]
  in
  let open Metamodel in
  base Queue Fifo_core @ base Queue Block_ram
  @ List.map
      (fun wait_states -> point ~wait_states Queue Ext_sram ~elem_width:8 ~depth:512)
      [ 0; 1; 2 ]
  @ base Stack Lifo_core @ base Stack Block_ram
  @ [
      point Stack Ext_sram ~elem_width:8 ~depth:512;
      point Vector Block_ram ~elem_width:8 ~depth:256;
      point Vector Ext_sram ~elem_width:8 ~depth:256;
      point Assoc_array Block_ram ~elem_width:8 ~depth:64;
      point Assoc_array Ext_sram ~elem_width:8 ~depth:64;
    ]

(* The ports of each kind's full circuit ({!Elaborate}) that the
   put/get workload drives: put request, put data, put ack, get
   request, get ack, and the index of the random-access kinds. *)
let ports = function
  | Metamodel.Queue | Metamodel.Stack ->
    ("put_req", "put_data", "put_ack", "get_req", "get_ack", None)
  | Metamodel.Read_buffer ->
    ("px_valid", "px_data", "px_ready", "get_req", "get_ack", None)
  | Metamodel.Write_buffer ->
    ("put_req", "put_data", "put_ack", "out_ready", "out_valid", None)
  | Metamodel.Vector ->
    ("write_req", "write_data", "write_ack", "read_req", "read_ack", Some "addr")
  | Metamodel.Assoc_array ->
    ("insert_req", "value_in", "insert_ack", "lookup_req", "lookup_ack", Some "key")

(* Run a put/get ping-pong workload and report (cycles per access,
   power monitor, whether an ack guard tripped).

   Each handshake is bounded by a 200-cycle guard. A tripped guard
   means the container never acknowledged — the point deadlocks under
   this workload — so the measurement is aborted and reported as timed
   out rather than folded into a bogus cycles-per-access figure (the
   old behaviour silently ranked such points in the design space). *)
let measure ?(check = fun () -> ()) kind sim =
  let put_req, put_data, put_ack, get_req, get_ack, index = ports kind in
  let drive name v =
    let r = Cyclesim.in_port sim name in
    r := Bits.of_int ~width:(Bits.width !r) v
  in
  let out name = Bits.to_bool !(Cyclesim.out_port sim name) in
  let monitor = Power.monitor sim in
  let cycles = ref 0 in
  let step () =
    check ();
    Cyclesim.cycle sim;
    Power.sample monitor;
    incr cycles
  in
  drive get_req 0;
  drive put_req 0;
  drive put_data 0;
  step ();
  let timed_out = ref false in
  let await_ack name =
    let guard = ref 0 in
    step ();
    while (not (out name)) && !guard < 200 do
      step ();
      incr guard
    done;
    if not (out name) then timed_out := true
  in
  let accesses = 32 in
  (try
     for i = 1 to accesses do
       Option.iter (fun index -> drive index (i land 15)) index;
       drive put_req 1;
       drive put_data (i land 255);
       await_ack put_ack;
       if !timed_out then raise Exit;
       drive put_req 0;
       step ();
       drive get_req 1;
       await_ack get_ack;
       if !timed_out then raise Exit;
       drive get_req 0;
       step ()
     done
   with Exit -> ());
  let per_access =
    if !timed_out then infinity
    else float_of_int !cycles /. float_of_int (2 * accesses)
  in
  (per_access, monitor, !timed_out)

let point_label (p : point) =
  Printf.sprintf "%s/%s/%dx%d%s"
    (Metamodel.container_short_name p.kind)
    (Metamodel.target_name p.target)
    p.elem_width p.depth
    (if p.target = Metamodel.Ext_sram then Printf.sprintf "/ws%d" p.wait_states
     else "")

(* Differential validation of the bit-parallel batched engine: one
   batched simulation carries [lanes] independent random stimulus
   streams over the point's full circuit, and the naive
   tree-walking interpreter replays every lane as the oracle — every
   output port must agree on every cycle.  This is deliberately *not*
   part of [measure]: the characterisation numbers come from the
   scalar engine as before, and this check exists to pin the batched
   engine to the trusted baseline on realistic container circuits
   (memories, handshakes, wait states), not just random netlists. *)
let selfcheck ?(lanes = Hwpat_rtl.Simbatch.lane_bits) ?(cycles = 32)
    ?(seed = 1) point =
  let circuit = Hwpat_containers.Elaborate.full point in
  let rng = Random.State.make [| 0xba7c4; seed |] in
  (* Uniform random vector of any width, 16 bits at a time. *)
  let random_bits ~width =
    let rec chunks w acc =
      if w = 0 then Bits.concat_msb acc
      else
        let k = min w 16 in
        chunks (w - k) (Bits.of_int ~width:k (Random.State.int rng (1 lsl k)) :: acc)
    in
    chunks width []
  in
  let plan = Cyclesim.plan circuit in
  let batch = Cyclesim.instantiate_batched ~lanes plan in
  let views = Array.init lanes (Cyclesim.lane_view batch) in
  let oracles =
    Array.init lanes (fun _ -> Cyclesim.create ~engine:Cyclesim.Reference circuit)
  in
  let inputs = List.map (fun (n, s) -> (n, Signal.width s)) (Circuit.inputs circuit) in
  let outputs = List.map fst (Circuit.outputs circuit) in
  let checks = ref 0 in
  for cyc = 1 to cycles do
    Array.iteri
      (fun l view ->
        List.iter
          (fun (name, w) ->
            let v = random_bits ~width:w in
            Cyclesim.drive view name v;
            Cyclesim.drive oracles.(l) name v)
          inputs)
      views;
    (* One clock for the whole batch (any lane view advances all
       lanes), one per scalar oracle. *)
    Cyclesim.cycle views.(0);
    Array.iter Cyclesim.cycle oracles;
    Array.iteri
      (fun l view ->
        List.iter
          (fun name ->
            let got = !(Cyclesim.out_port view name) in
            let want = !(Cyclesim.out_port oracles.(l) name) in
            incr checks;
            if not (Bits.equal got want) then
              failwith
                (Printf.sprintf
                   "Characterize.selfcheck: %s lane %d cycle %d port %s: \
                    batched %s, naive %s"
                   (point_label point) l cyc name (Bits.to_string got)
                   (Bits.to_string want)))
          outputs)
      views
  done;
  !checks

(* A point the supervisor gave up on (watchdog timeout, cancellation):
   reported as an unmeasurable candidate so the sweep output still
   lists every point, and ranking excludes it exactly like an
   ack-guard trip. *)
let unfinished_candidate (point : point) =
  {
    Design_space.label = point_label point;
    container = Metamodel.container_short_name point.kind;
    target = Metamodel.target_name point.target;
    elem_width = point.elem_width;
    depth = point.depth;
    luts = 0;
    ffs = 0;
    brams = 0;
    access_cycles = infinity;
    fmax_mhz = 0.0;
    power_mw = infinity;
    measured = false;
  }

let characterize ?check (point : point) =
  let circuit = Hwpat_containers.Elaborate.full point in
  let resources = Techmap.estimate circuit in
  let timing = Timing.analyze circuit in
  let sim = Cyclesim.create circuit in
  let access_cycles, monitor, timed_out = measure ?check point.kind sim in
  let power = Power.estimate ~clock_mhz:timing.Timing.fmax_mhz monitor in
  {
    (unfinished_candidate point) with
    luts = resources.Techmap.luts;
    ffs = resources.Techmap.ffs;
    brams = resources.Techmap.brams;
    access_cycles;
    fmax_mhz = timing.Timing.fmax_mhz;
    power_mw = (if timed_out then infinity else power.Power.total_mw);
    measured = not timed_out;
  }

(* Journal payload for a measured point (identity lives in the shard
   key, which is the point label).  Floats round-trip through their
   IEEE bits so resumed sweeps reproduce the original bytes. *)
let encode_candidate (c : Design_space.candidate) =
  Printf.sprintf "%d %d %d %Lx %Lx %Lx %b" c.Design_space.luts c.ffs c.brams
    (Int64.bits_of_float c.access_cycles)
    (Int64.bits_of_float c.fmax_mhz)
    (Int64.bits_of_float c.power_mw)
    c.measured

let decode_candidate point data =
  try
    Scanf.sscanf data "%d %d %d %Lx %Lx %Lx %B"
      (fun luts ffs brams access fmax power measured ->
        Some
          {
            (unfinished_candidate point) with
            Design_space.luts;
            ffs;
            brams;
            access_cycles = Int64.float_of_bits access;
            fmax_mhz = Int64.float_of_bits fmax;
            power_mw = Int64.float_of_bits power;
            measured;
          })
  with Scanf.Scan_failure _ | Failure _ | End_of_file -> None

(* Each sweep point is an independent build+simulate job; shard them
   across domains with work-stealing rebalancing the uneven per-point
   costs. Every point is a *distinct* circuit configuration, so unlike
   a fault campaign there is no plan to share between shards: each
   shard elaborates and compiles its own point exactly once. Results
   are merged in point order, so the candidate list is identical
   whatever [jobs] is — and, via the checkpoint journal, whether or
   not the sweep was interrupted and resumed. *)
let sweep ?(trace = Hwpat_obs.Trace.null) ?(metrics = Hwpat_obs.Metrics.null)
    ?jobs ?policy ?cancel ?checkpoint ?(resume = false)
    ?(points = default_points) () =
  let module Trace = Hwpat_obs.Trace in
  Trace.span trace "sweep"
    ~args:[ ("points", Trace.Int (List.length points)) ]
  @@ fun () ->
  let pts = Array.of_list points in
  let labels = Array.map point_label pts in
  let config =
    "sweep " ^ String.concat "," (Array.to_list labels)
  in
  let journal =
    Option.map (fun path -> Journal.start ~path ~config ~resume) checkpoint
  in
  Fun.protect
    ~finally:(fun () -> Option.iter Journal.close journal)
  @@ fun () ->
  let outcomes =
    Supervise.run_shards ?jobs ?policy ~metrics ?cancel ?journal
      ~key:(fun i -> labels.(i))
      ~encode:encode_candidate
      ~decode:(fun i data -> decode_candidate pts.(i) data)
      (Array.length pts)
      (fun ctx i ->
        (* Per-point spans land on the worker domain's lane: straggler
           points are visible in the trace. *)
        Trace.span trace
          (Printf.sprintf "point:%s" labels.(i))
          (fun () ->
            characterize ~check:(fun () -> Supervise.check ctx) pts.(i)))
  in
  Array.to_list
    (Array.mapi
       (fun i -> function
         | Supervise.Done c -> c
         | Supervise.Unfinished _ -> unfinished_candidate pts.(i))
       outcomes)

let region_report ~constraints candidates =
  let unmeasurable = Design_space.unmeasurable candidates in
  let feasible = Design_space.feasible constraints candidates in
  let region = Design_space.region_of_interest constraints candidates in
  let header =
    Printf.sprintf "%d candidates, %d feasible, %d on the Pareto front:"
      (List.length candidates) (List.length feasible) (List.length region)
  in
  let unmeasured_note =
    match unmeasurable with
    | [] -> []
    | u ->
      [
        Printf.sprintf
          "%d point(s) unmeasurable (ack guard tripped or unfinished), \
           excluded from \
           ranking: %s"
          (List.length u)
          (String.concat ", "
             (List.map (fun c -> c.Design_space.label) u));
      ]
  in
  String.concat "\n" ((header :: unmeasured_note) @ [ Design_space.to_table region ])
