open Hwpat_formal

type result = {
  name : string;
  kind : string;
  ok : bool;
  unknown : bool;
  status : string;
  seconds : float;
}

(* [t_run] receives the solve budget and the supervision watchdog
   hook, threaded into the SAT solver's [?interrupt] so a wall-clock
   deadline can abandon a solve mid-search. *)
type task = {
  t_name : string;
  t_kind : string;
  t_run :
    budget:Solver.budget ->
    interrupt:(unit -> unit) ->
    bool * bool * string;
}

(* ---------------------------------------------------------------- *)
(* Obligations                                                      *)
(* ---------------------------------------------------------------- *)

(* (ok, unknown, status): an Unknown verdict is scored as not-proved
   but flagged so reports never conflate "refuted" with "gave up". *)
let equiv_status = function
  | Equiv.Proved -> (true, false, "proved")
  | Equiv.Counterexample cex ->
    (false, false, Printf.sprintf "counterexample(%d cycles)" (List.length cex))
  | Equiv.Unknown why -> (false, true, "unknown: " ^ why)

let bmc_status = function
  | Bmc.Holds d -> (true, false, Printf.sprintf "holds(%d)" d)
  | Bmc.Violation v ->
    (false, false,
     Printf.sprintf "violation of %s at cycle %d" v.Bmc.property v.Bmc.at)
  | Bmc.Unknown why -> (false, true, "unknown: " ^ why)

(* Paper designs at proof-sized parameters: the buffers shrink from
   512 to 16 elements so the memory state stays tractable for the SAT
   encoding; the control logic under proof is the same. *)
let paper_designs () =
  [
    ( "saa2vga_fifo",
      fun () ->
        Saa2vga.build ~depth:16 ~substrate:Saa2vga.Fifo ~style:Saa2vga.Pattern
          () );
    ( "saa2vga_sram",
      fun () ->
        Saa2vga.build ~depth:16 ~substrate:Saa2vga.Sram ~style:Saa2vga.Pattern
          () );
    ( "blur",
      fun () ->
        Blur_system.build ~image_width:8 ~max_rows:8 ~style:Blur_system.Pattern
          () );
  ]

let monitor_tasks ~trace ~metrics ~depth =
  List.map
    (fun (name, build) ->
      {
        t_name = name;
        t_kind = "monitor";
        t_run =
          (fun ~budget ~interrupt ->
            bmc_status
              (Bmc.check_auto ~trace ~metrics ~budget ~interrupt ~depth
                 (build ())));
      })
    (paper_designs ())

(* Optimizer equivalence on the paper designs themselves, not just
   random netlists: the handshake-heavy control is where candidate
   induction has to work hardest. *)
let design_equiv_tasks ~trace ~metrics () =
  List.map
    (fun (name, build) ->
      {
        t_name = name;
        t_kind = "equiv";
        t_run =
          (fun ~budget ~interrupt ->
            let c = build () in
            equiv_status
              (Equiv.check ~trace ~metrics ~budget ~interrupt c
                 (Hwpat_rtl.Optimize.circuit c)));
      })
    (paper_designs ())

let optimize_tasks ~trace ~metrics ~seeds =
  List.map
    (fun seed ->
      {
        t_name = Printf.sprintf "random_seed_%d" seed;
        t_kind = "optimize";
        t_run =
          (fun ~budget ~interrupt ->
            let c, _ = Netgen.build_random_circuit ~seed in
            equiv_status
              (Equiv.check ~trace ~metrics ~budget ~interrupt c
                 (Hwpat_rtl.Optimize.circuit c)));
      })
    seeds

let prune_pairs () =
  let open Hwpat_meta in
  let cfg ?(wait_states = 1) ~name ~kind ~target ~depth ~ops () =
    Config.make ~instance_name:name ~kind ~target ~elem_width:4 ~depth
      ~ops_used:ops ~wait_states ()
  in
  [
    cfg ~name:"q_fifo_put" ~kind:Metamodel.Queue ~target:Metamodel.Fifo_core
      ~depth:8 ~ops:[ Metamodel.Write ] ();
    cfg ~name:"q_bram_get" ~kind:Metamodel.Queue ~target:Metamodel.Block_ram
      ~depth:8 ~ops:[ Metamodel.Read ] ();
    cfg ~name:"q_sram_put" ~kind:Metamodel.Queue ~target:Metamodel.Ext_sram
      ~depth:4 ~ops:[ Metamodel.Write ] ();
    cfg ~name:"s_lifo_put" ~kind:Metamodel.Stack ~target:Metamodel.Lifo_core
      ~depth:8 ~ops:[ Metamodel.Write ] ();
    cfg ~name:"s_bram_get" ~kind:Metamodel.Stack ~target:Metamodel.Block_ram
      ~depth:8 ~ops:[ Metamodel.Read ] ();
    cfg ~name:"v_bram_read" ~kind:Metamodel.Vector ~target:Metamodel.Block_ram
      ~depth:8
      ~ops:[ Metamodel.Read; Metamodel.Index ]
      ();
    cfg ~name:"v_sram_write" ~kind:Metamodel.Vector ~target:Metamodel.Ext_sram
      ~depth:4
      ~ops:[ Metamodel.Write; Metamodel.Index ]
      ();
  ]

let prune_tasks ~trace ~metrics () =
  List.map
    (fun cfg ->
      {
        t_name = Hwpat_meta.Config.entity_name cfg;
        t_kind = "prune";
        t_run =
          (fun ~budget ~interrupt ->
            equiv_status
              (Equiv.check ~trace ~metrics ~budget ~interrupt
                 (Hwpat_containers.Elaborate.full ~trace cfg)
                 (Hwpat_containers.Elaborate.pruned ~trace cfg)));
      })
    (prune_pairs ())

let battery ?(trace = Hwpat_obs.Trace.null)
    ?(metrics = Hwpat_obs.Metrics.null) ~smoke () =
  let seq a b = List.init (b - a + 1) (fun i -> a + i) in
  if smoke then
    monitor_tasks ~trace ~metrics ~depth:10
    @ optimize_tasks ~trace ~metrics ~seeds:(seq 1 10)
  else
    monitor_tasks ~trace ~metrics ~depth:20
    @ design_equiv_tasks ~trace ~metrics ()
    @ optimize_tasks ~trace ~metrics ~seeds:(seq 1 40)
    @ prune_tasks ~trace ~metrics ()

(* ---------------------------------------------------------------- *)
(* Execution                                                        *)
(* ---------------------------------------------------------------- *)

let run_task ~trace ~budget ctx t =
  (* One span per obligation on its worker domain's lane; the Equiv/Bmc
     phase spans nest underneath it. *)
  Hwpat_obs.Trace.span trace (t.t_kind ^ ":" ^ t.t_name) @@ fun () ->
  let t0 = Unix.gettimeofday () in
  let ok, unknown, status =
    try
      t.t_run ~budget ~interrupt:(fun () -> Supervise.check ctx)
    with
    | e when Supervise.is_transient e ->
      (* Watchdog timeouts escape to the supervisor for retry /
         explicit Unfinished reporting; everything else is recorded as
         this obligation's own failure. *)
      raise e
    | e -> (false, false, "raised: " ^ Printexc.to_string e)
  in
  {
    name = t.t_name;
    kind = t.t_kind;
    ok;
    unknown;
    status;
    seconds = Unix.gettimeofday () -. t0;
  }

(* Journal payload for one completed obligation (name and kind are
   implied by the shard key).  Seconds round-trip through their IEEE
   bits so a resumed run reports the originally measured time. *)
let encode_result r =
  Printf.sprintf "%b %b %Lx %S" r.ok r.unknown
    (Int64.bits_of_float r.seconds)
    r.status

let decode_result t data =
  try
    Scanf.sscanf data "%B %B %Lx %S" (fun ok unknown bits status ->
        Some
          {
            name = t.t_name;
            kind = t.t_kind;
            ok;
            unknown;
            status;
            seconds = Int64.float_of_bits bits;
          })
  with Scanf.Scan_failure _ | Failure _ | End_of_file -> None

let run ?(trace = Hwpat_obs.Trace.null) ?(metrics = Hwpat_obs.Metrics.null)
    ?jobs ?policy ?cancel ?checkpoint ?(resume = false)
    ?(budget = Hwpat_formal.Solver.no_budget) ?(smoke = false) () =
  let tasks = Array.of_list (battery ~trace ~metrics ~smoke ()) in
  let config =
    Printf.sprintf "prove smoke=%b budget=%d/%d" smoke
      budget.Hwpat_formal.Solver.max_conflicts
      budget.Hwpat_formal.Solver.max_propagations
  in
  let journal =
    Option.map (fun path -> Journal.start ~path ~config ~resume) checkpoint
  in
  let outcomes =
    Fun.protect
      ~finally:(fun () -> Option.iter Journal.close journal)
      (fun () ->
        let key i = tasks.(i).t_kind ^ ":" ^ tasks.(i).t_name in
        Supervise.run_shards ?jobs ?policy ~metrics ?cancel ?journal ~key
          ~encode:encode_result
          ~decode:(fun i data -> decode_result tasks.(i) data)
          (Array.length tasks)
          (fun ctx i -> run_task ~trace ~budget ctx tasks.(i)))
  in
  let results =
    Array.to_list
      (Array.mapi
         (fun i -> function
           | Supervise.Done r -> r
           | Supervise.Unfinished { reason; attempts } ->
             {
               name = tasks.(i).t_name;
               kind = tasks.(i).t_kind;
               ok = false;
               unknown = true;
               status =
                 Printf.sprintf "unfinished: %s (%d attempts)" reason attempts;
               seconds = 0.0;
             })
         outcomes)
  in
  List.iter
    (fun r ->
      Hwpat_obs.Metrics.incr metrics
        (if r.ok then "prove.proved"
         else if r.unknown then "prove.unknown"
         else "prove.failed"))
    results;
  results

let all_ok results = List.for_all (fun r -> r.ok) results

let to_json ~jobs ~smoke results =
  let module J = Hwpat_obs.Json in
  let count p = List.length (List.filter p results) in
  let proved = count (fun r -> r.ok) and unknown = count (fun r -> r.unknown) in
  let result r =
    J.Obj
      [ ("name", J.String r.name); ("kind", J.String r.kind);
        ("ok", J.Bool r.ok); ("unknown", J.Bool r.unknown);
        ("status", J.String r.status); ("seconds", J.rounded 3 r.seconds) ]
  in
  J.Obj
    [ ("section", J.String "prove"); ("jobs", J.Int jobs);
      ("smoke", J.Bool smoke); ("obligations", J.Int (List.length results));
      ("proved", J.Int proved);
      ("failed", J.Int (List.length results - proved - unknown));
      ("unknown", J.Int unknown);
      ( "total_seconds",
        J.rounded 3 (List.fold_left (fun acc r -> acc +. r.seconds) 0.0 results) );
      ("results", J.List (List.map result results)) ]

let summary results =
  let buf = Buffer.create 1024 in
  List.iter
    (fun r ->
      Buffer.add_string buf
        (Printf.sprintf "[%s] prove %s/%s: %s (%.2fs)\n"
           (if r.ok then "OK" else if r.unknown then "UNK" else "FAIL")
           r.kind r.name r.status r.seconds))
    results;
  let proved = List.length (List.filter (fun r -> r.ok) results) in
  let unknown = List.length (List.filter (fun r -> r.unknown) results) in
  Buffer.add_string buf
    (Printf.sprintf
       "prove: %d obligations, %d proved, %d failed, %d unknown\n"
       (List.length results) proved
       (List.length results - proved - unknown)
       unknown);
  Buffer.contents buf
