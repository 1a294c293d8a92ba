open Hwpat_formal

type result = {
  name : string;
  kind : string;
  ok : bool;
  unknown : bool;
  status : string;
  seconds : float;
}

(* [t_run] receives the supervision watchdog hook, threaded into the
   SAT solver's [?interrupt] so a wall-clock deadline can abandon a
   solve mid-search — plus the solve budget and the solver
   configuration, supplied per attempt so the portfolio driver can
   race the same obligation under different budgets and configs. *)
type task = {
  t_name : string;
  t_kind : string;
  t_run :
    budget:Solver.budget ->
    solver_config:Solver.config ->
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
          (fun ~budget ~solver_config ~interrupt ->
            bmc_status
              (Bmc.check_auto ~trace ~metrics ~budget ~solver_config
                 ~interrupt ~depth (build ())));
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
          (fun ~budget ~solver_config ~interrupt ->
            let c = build () in
            equiv_status
              (Equiv.check ~trace ~metrics ~budget ~solver_config ~interrupt
                 c
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
          (fun ~budget ~solver_config ~interrupt ->
            let c, _ = Netgen.build_random_circuit ~seed in
            equiv_status
              (Equiv.check ~trace ~metrics ~budget ~solver_config ~interrupt
                 c
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
          (fun ~budget ~solver_config ~interrupt ->
            equiv_status
              (Equiv.check ~trace ~metrics ~budget ~solver_config ~interrupt
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
      t.t_run ~budget ~solver_config:Solver.default_config
        ~interrupt:(fun () -> Supervise.check ctx)
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

let unfinished_result t (reason, attempts) =
  {
    name = t.t_name;
    kind = t.t_kind;
    ok = false;
    unknown = true;
    status = Printf.sprintf "unfinished: %s (%d attempts)" reason attempts;
    seconds = 0.0;
  }

(* ---------------------------------------------------------------- *)
(* Portfolio racing                                                 *)
(* ---------------------------------------------------------------- *)

(* [--portfolio n] expands every obligation into [n] cells — one per
   solver configuration — and races them through {!Portfolio.rounds}'
   escalating budget ladder.  A cell's answer is *definitive* when it
   is anything other than a budget-capped Unknown before the final
   round; the obligation's verdict is the definitive answer with the
   smallest [(round, racer index)] key.  Round budgets count solver
   operations, so which cells answer at which round is a pure function
   of the battery: the winning cell is the same at any job count and
   under any scheduler.  Losers abort early ({!Portfolio.Beaten}, via
   the solver's interrupt hook) once a strictly smaller key has been
   posted — only an optimization, since every posted key belongs to a
   definitive answer and the winner holds the minimal one, so the
   winner itself is never aborted.  Aborted racers skip their solver
   stats merge exactly like watchdog-interrupted attempts do. *)

type cell_outcome = (int * result) option
(* [None] = beaten; [Some (key, r)] = definitive at [key]. *)

(* Key arithmetic uses the full racer keyspace (not [n]) so the same
   (round, racer) pair encodes identically at every portfolio width. *)
let cell_keyspace = Portfolio.max_racers

let rec post_best a k =
  let cur = Atomic.get a in
  if k < cur && not (Atomic.compare_and_set a cur k) then post_best a k

let run_cell ~trace ~best ~rounds ~racer ctx t : cell_outcome =
  Hwpat_obs.Trace.span trace
    (Printf.sprintf "%s:%s#%s" t.t_kind t.t_name racer.Portfolio.label)
  @@ fun () ->
  let t0 = Unix.gettimeofday () in
  let final = Array.length rounds - 1 in
  let rec attempt round =
    let ck = (round * cell_keyspace) + racer.Portfolio.index in
    if Atomic.get best < ck then None
    else begin
      let interrupt () =
        Supervise.check ctx;
        if Atomic.get best < ck then raise Portfolio.Beaten
      in
      match
        t.t_run ~budget:rounds.(round) ~solver_config:racer.Portfolio.config
          ~interrupt
      with
      | ok, unknown, status ->
        if unknown && Portfolio.budget_limited status && round < final then
          attempt (round + 1)
        else begin
          post_best best ck;
          Some
            ( ck,
              {
                name = t.t_name;
                kind = t.t_kind;
                ok;
                unknown;
                status;
                seconds = Unix.gettimeofday () -. t0;
              } )
        end
      | exception Portfolio.Beaten -> None
      | exception e when Supervise.is_transient e -> raise e
      | exception e ->
        (* An obligation-level crash is as config-dependent as any
           verdict, and as deterministic: definitive at this key. *)
        post_best best ck;
        Some
          ( ck,
            {
              name = t.t_name;
              kind = t.t_kind;
              ok = false;
              unknown = false;
              status = "raised: " ^ Printexc.to_string e;
              seconds = Unix.gettimeofday () -. t0;
            } )
    end
  in
  attempt 0

let encode_cell = function
  | None -> "beaten"
  | Some (ck, r) -> Printf.sprintf "%d %s" ck (encode_result r)

let decode_cell t data =
  if data = "beaten" then Some None
  else
    match String.index_opt data ' ' with
    | None -> None
    | Some sp -> (
      match int_of_string_opt (String.sub data 0 sp) with
      | None -> None
      | Some ck ->
        Option.map
          (fun r -> Some (ck, r))
          (decode_result t
             (String.sub data (sp + 1) (String.length data - sp - 1))))

let run ?(trace = Hwpat_obs.Trace.null) ?(metrics = Hwpat_obs.Metrics.null)
    ?jobs ?policy ?cancel ?checkpoint ?(resume = false)
    ?(budget = Hwpat_formal.Solver.no_budget) ?(smoke = false) ?portfolio () =
  let tasks = Array.of_list (battery ~trace ~metrics ~smoke ()) in
  let base_config =
    Printf.sprintf "prove smoke=%b budget=%d/%d" smoke
      budget.Hwpat_formal.Solver.max_conflicts
      budget.Hwpat_formal.Solver.max_propagations
  in
  let with_journal ~config f =
    let journal =
      Option.map (fun path -> Journal.start ~path ~config ~resume) checkpoint
    in
    Fun.protect
      ~finally:(fun () -> Option.iter Journal.close journal)
      (fun () -> f journal)
  in
  let results =
    match portfolio with
    | None ->
      with_journal ~config:base_config @@ fun journal ->
      let key i = tasks.(i).t_kind ^ ":" ^ tasks.(i).t_name in
      let outcomes =
        Supervise.run_shards ?jobs ?policy ~metrics ?cancel ?journal ~key
          ~encode:encode_result
          ~decode:(fun i data -> decode_result tasks.(i) data)
          (Array.length tasks)
          (fun ctx i -> run_task ~trace ~budget ctx tasks.(i))
      in
      Array.to_list
        (Array.mapi
           (fun i -> function
             | Supervise.Done r -> r
             | Supervise.Unfinished { reason; attempts } ->
               unfinished_result tasks.(i) (reason, attempts))
           outcomes)
    | Some n ->
      let racers = Array.of_list (Portfolio.racers ~n) in
      let rounds = Array.of_list (Portfolio.rounds ~cap:budget) in
      let nr = Array.length racers in
      let best =
        Array.init (Array.length tasks) (fun _ -> Atomic.make max_int)
      in
      (* The racer count is part of the journal config: a journal from
         a different portfolio width (or the single-solver path) names
         different shards and must not be resumed into this one. *)
      with_journal ~config:(Printf.sprintf "%s portfolio=%d" base_config n)
      @@ fun journal ->
      let key c =
        let t = tasks.(c / nr) in
        Printf.sprintf "%s:%s#%s" t.t_kind t.t_name
          racers.(c mod nr).Portfolio.label
      in
      let outcomes =
        Supervise.run_shards ?jobs ?policy ~metrics ?cancel ?journal ~key
          ~encode:encode_cell
          ~decode:(fun c data -> decode_cell tasks.(c / nr) data)
          (Array.length tasks * nr)
          (fun ctx c ->
            run_cell ~trace
              ~best:best.(c / nr)
              ~rounds
              ~racer:racers.(c mod nr)
              ctx
              tasks.(c / nr))
      in
      List.init (Array.length tasks) (fun ti ->
          let cells = List.init nr (fun ri -> outcomes.((ti * nr) + ri)) in
          let definitive =
            List.filter_map
              (function Supervise.Done (Some cell) -> Some cell | _ -> None)
              cells
          in
          match List.sort (fun (a, _) (b, _) -> compare a b) definitive with
          | (ck, r) :: _ ->
            Hwpat_obs.Metrics.incr metrics
              ("prove.portfolio.win."
              ^ racers.(ck mod cell_keyspace).Portfolio.label);
            r
          | [] -> (
            (* No definitive answer at all: the winning cell itself
               must have gone unfinished under supervision (every
               beaten cell implies a smaller posted — hence definitive
               and recorded — key somewhere).  Report its reason. *)
            match
              List.find_map
                (function
                  | Supervise.Unfinished { reason; attempts } ->
                    Some (reason, attempts)
                  | _ -> None)
                cells
            with
            | Some ra -> unfinished_result tasks.(ti) ra
            | None ->
              unfinished_result tasks.(ti) ("portfolio: all racers beaten", 0)))
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
