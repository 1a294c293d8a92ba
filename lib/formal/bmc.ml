(* Bounded model checking of monitor-style safety properties. The
   properties are compiled to single-bit "bad" signals on the circuit's
   own graph, the circuit is closed again with those bits as extra
   outputs, and the result is unrolled frame by frame from the power-on
   state. *)

open Hwpat_rtl
open Hwpat_rtl.Signal

type property = { name : string; bad : Signal.t }

type violation = {
  property : string;
  at : int;
  trace : (string * Bits.t) list list;
}

type result = Holds of int | Violation of violation | Unknown of string

(* --- Property derivation (mirror of Monitor.add_auto) -------------------- *)

let signals_by_name circuit =
  let tbl = Hashtbl.create 97 in
  let note n s = if not (Hashtbl.mem tbl n) then Hashtbl.replace tbl n s in
  List.iter
    (fun s -> List.iter (fun n -> note n s) (Signal.names s))
    (Circuit.signals circuit);
  List.iter (fun (n, s) -> note n s) (Circuit.inputs circuit);
  tbl

let strip_suffix ~suffix name =
  let nl = String.length name and sl = String.length suffix in
  if nl > sl && String.sub name (nl - sl) sl = suffix then
    Some (String.sub name 0 (nl - sl))
  else None

(* Monitor peeks are [Bits.to_bool]: any bit set. *)
let as_bool s = if width s = 1 then s else reduce_or s

(* The req/ack convention (Monitor.add_handshake): ack never fires
   without a request pending; a request is held until its ack. The
   previous-cycle values the runtime monitor keeps in refs become
   history registers here. *)
let handshake_properties base ~req ~ack =
  let r = as_bool req and a = as_bool ack in
  let prev_r = reg r and prev_a = reg a in
  [
    { name = base ^ ".ack"; bad = a &: ~:r };
    { name = base ^ ".req"; bad = prev_r &: ~:prev_a &: ~:r };
  ]

(* Occupancy invariants (Monitor.add_fifo): the empty flag tracks
   count=0, full and empty never hold together, and the count steps by
   at most one per cycle. The step check compares at width+1 bits so it
   matches the monitor's exact integer arithmetic, and a "started" flag
   reproduces the monitor skipping its first sample. *)
let fifo_properties base ?full ~count ~empty () =
  let w = width count in
  let cw = uresize count (w + 1) in
  let prev = reg count in
  let pw = uresize prev (w + 1) in
  let one1 = of_int ~width:(w + 1) 1 in
  let started = reg vdd in
  let e = as_bool empty in
  [ { name = base ^ ".empty"; bad = e ^: (count ==: zero w) } ]
  @ (match full with
    | Some f -> [ { name = base ^ ".full"; bad = as_bool f &: e } ]
    | None -> [])
  @ [
      {
        name = base ^ ".count";
        bad = started &: ((cw >: pw +: one1) |: (pw >: cw +: one1));
      };
    ]

let derive_properties circuit =
  let tbl = signals_by_name circuit in
  let names = Hashtbl.fold (fun n _ acc -> n :: acc) tbl [] in
  let names = List.sort_uniq compare names in
  let handshakes =
    List.concat_map
      (fun n ->
        match strip_suffix ~suffix:"_req" n with
        | Some base -> (
          match Hashtbl.find_opt tbl (base ^ "_ack") with
          | Some ack ->
            handshake_properties base ~req:(Hashtbl.find tbl n) ~ack
          | None -> [])
        | None -> [])
      names
  in
  let fifos =
    List.concat_map
      (fun n ->
        match strip_suffix ~suffix:"_count" n with
        | Some base -> (
          match Hashtbl.find_opt tbl (base ^ "_empty") with
          | Some empty ->
            fifo_properties base
              ?full:(Hashtbl.find_opt tbl (base ^ "_full"))
              ~count:(Hashtbl.find tbl n) ~empty ()
          | None -> [])
        | None -> [])
      names
  in
  handshakes @ fifos

(* --- Checking ------------------------------------------------------------ *)

let bad_output_name p = "__formal_bad__" ^ p.name

(* Replay the trace on a plain Cyclesim of the extended circuit: the
   bad output must actually rise at the reported cycle, or the
   encoding and the simulator disagree. *)
let confirm_on_sim extended ~bad_name ~at trace =
  let sim = Cyclesim.create extended in
  let seen = ref false in
  List.iteri
    (fun k assignment ->
      if k <= at then begin
        List.iter (fun (n, v) -> Cyclesim.drive sim n v) assignment;
        Cyclesim.cycle sim;
        if k = at then seen := Bits.to_bool !(Cyclesim.out_port sim bad_name)
      end)
    trace;
  if not !seen then
    failwith
      (Printf.sprintf
         "Bmc: SAT violation of %s does not replay in Cyclesim — the \
          encoding disagrees with the simulator"
         bad_name)

let check ?(trace = Hwpat_obs.Trace.null) ?(metrics = Hwpat_obs.Metrics.null)
    ?(budget = Solver.no_budget) ?interrupt ?(depth = 20) circuit properties =
  List.iter
    (fun p ->
      if Signal.width p.bad <> 1 then
        invalid_arg (Printf.sprintf "Bmc: property %s is not 1 bit" p.name))
    properties;
  if properties = [] then Holds depth
  else begin
    let extended =
      Circuit.create_exn
        ~name:(Circuit.name circuit ^ "_props")
        (Circuit.outputs circuit
        @ List.map (fun p -> (bad_output_name p, p.bad)) properties)
    in
    let elts = Strash.state_elements extended in
    let solver = Solver.create () in
    let sh = Strash.create solver in
    (* Stats merge exactly once per solver instance: a check the
       [interrupt] hook abandons (a supervision watchdog about to
       retry the whole call) must not record its partial counts — the
       retry records its own complete run, and both together would
       double against a single uninterrupted run. *)
    let interrupted = ref false in
    let interrupt =
      match interrupt with
      | None -> None
      | Some hook ->
        Some
          (fun () ->
            try hook ()
            with exn ->
              interrupted := true;
              raise exn)
    in
    let search () =
    let inputs = List.map (fun (n, s) -> (n, Signal.width s)) (Circuit.inputs extended) in
    let state =
      ref (Array.map (fun elt -> Strash.constant sh (Strash.elt_init elt)) elts)
    in
    let frames = ref [] in
    let result = ref None in
    let k = ref 0 in
    while !result = None && !k < depth do
      let vecs =
        List.map (fun (n, w) -> (n, Strash.fresh_vector sh w)) inputs
      in
      let f =
        Strash.frame sh extended
          ~inputs:(fun n -> List.assoc n vecs)
          ~state:(fun i -> !state.(i))
      in
      state := f.Strash.next;
      frames := vecs :: !frames;
      let bads =
        List.map
          (fun p -> (p, (List.assoc (bad_output_name p) f.Strash.outputs).(0)))
          properties
      in
      let act = Solver.new_var solver in
      Solver.add_clause solver
        (-act :: List.map (fun (_, l) -> Strash.to_solver_lit sh l) bads);
      (match Solver.solve ~assumptions:[ act ] ~budget ?interrupt solver with
      | Solver.Unknown ->
        (* Budget exhausted at this frame: report how far the search
           got — frames 0 .. k-1 are genuinely violation-free. *)
        result :=
          Some
            (Unknown
               (Printf.sprintf
                  "solver budget exhausted at frame %d (no violation in \
                   frames 0..%d)"
                  !k (!k - 1)))
      | Solver.Sat ->
        let violated, _ =
          List.find (fun (_, l) -> Strash.value sh l) bads
        in
        let trace =
          List.rev_map
            (fun vecs ->
              List.map (fun (n, v) -> (n, Strash.model_bits sh v)) vecs)
            !frames
        in
        confirm_on_sim extended ~bad_name:(bad_output_name violated) ~at:!k
          trace;
        result := Some (Violation { property = violated.name; at = !k; trace })
      | Solver.Unsat -> ());
      incr k
    done;
    match !result with Some r -> r | None -> Holds depth
    in
    Fun.protect
      ~finally:(fun () ->
        if not !interrupted then Solver_obs.record metrics [ solver ])
      (fun () ->
        Hwpat_obs.Trace.span trace "bmc"
          ~args:
            [
              ("depth", Hwpat_obs.Trace.Int depth);
              ("properties", Hwpat_obs.Trace.Int (List.length properties));
            ]
          search)
  end

let check_auto ?trace ?metrics ?budget ?interrupt ?depth circuit =
  match derive_properties circuit with
  | [] ->
    invalid_arg
      (Printf.sprintf
         "Bmc.check_auto: %s has no monitored signal pairs (nothing to prove)"
         (Circuit.name circuit))
  | properties -> (
    match
      check ?trace ?metrics ?budget ?interrupt ?depth circuit properties
    with
    | Holds d -> Holds d
    | Unknown _ as r -> r
    | Violation v ->
      (* Cross-check the property compiler itself: the runtime monitor
         must flag the same trace on the original circuit. *)
      let sim = Cyclesim.create circuit in
      let monitor = Monitor.create sim in
      ignore (Monitor.add_auto monitor);
      List.iteri
        (fun k assignment ->
          if k <= v.at then begin
            List.iter
              (fun (n, value) ->
                if List.mem_assoc n (Circuit.inputs circuit) then
                  Cyclesim.drive sim n value)
              assignment;
            Cyclesim.cycle sim;
            Monitor.sample monitor
          end)
        v.trace;
      if Monitor.ok monitor then
        failwith
          (Printf.sprintf
             "Bmc: violation of %s not confirmed by the runtime monitor"
             v.property);
      Violation v)
