(* The domain-parallel execution layer and its determinism guarantees:
   - the runner preserves submission order and propagates the
     lowest-numbered shard's exception;
   - concurrent circuit elaboration never mints duplicate signal uids
     (the [Signal.next_uid] atomic fix);
   - sharded fault campaigns and characterisation sweeps produce
     bit-identical summaries, classifications and JSON at any job
     count;
   - a characterisation point that trips the ack guard is recorded as
     unmeasurable and excluded from ranking instead of scored on
     garbage. *)

open Hwpat_rtl
open Hwpat_rtl.Signal
open Hwpat_core
open Hwpat_synthesis

(* --- The runner itself --------------------------------------------------- *)

let test_run_order () =
  let serial = Array.init 100 (fun i -> (i * i) + 3) in
  List.iter
    (fun jobs ->
      let parallel = Parallel.run ~jobs 100 (fun i -> (i * i) + 3) in
      Alcotest.(check (array int))
        (Printf.sprintf "jobs:%d matches serial" jobs)
        serial parallel)
    [ 1; 2; 4; 7 ];
  Alcotest.(check (array int)) "empty" [||] (Parallel.run ~jobs:4 0 (fun i -> i));
  Alcotest.(check (list string))
    "map preserves order"
    [ "a!"; "b!"; "c!" ]
    (Parallel.map ~jobs:3 (fun s -> s ^ "!") [ "a"; "b"; "c" ])

(* Regression: a shard failure must surface with the *shard's*
   backtrace (the runner re-raises with [Printexc.raise_with_backtrace]),
   so the raising site in this file is visible to the caller — not just
   the runner's own re-raise frame. *)
let[@inline never] raise_deep_in_shard () = failwith "shard backtrace probe"

let test_run_backtrace () =
  let prev = Printexc.backtrace_status () in
  Printexc.record_backtrace true;
  Fun.protect ~finally:(fun () -> Printexc.record_backtrace prev) @@ fun () ->
  let bt =
    try
      ignore
        (Parallel.run ~jobs:2 4 (fun i ->
             if i = 2 then raise_deep_in_shard ();
             i));
      "no exception"
    with Failure _ -> Printexc.get_backtrace ()
  in
  let contains needle hay =
    let nl = String.length needle and hl = String.length hay in
    let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "backtrace reaches the shard's raise site" true
    (contains "test_parallel" bt)

let test_run_exception () =
  let failing_run jobs =
    let attempted = Atomic.make 0 in
    let raised =
      try
        ignore
          (Parallel.run ~jobs 10 (fun i ->
               Atomic.incr attempted;
               if i = 3 || i = 7 then failwith (Printf.sprintf "shard %d" i);
               i));
        "no exception"
      with Failure msg -> msg
    in
    (raised, Atomic.get attempted)
  in
  (* Serial: evaluation stops at the failing shard. *)
  let raised, attempted = failing_run 1 in
  Alcotest.(check string) "serial: lowest shard's exception" "shard 3" raised;
  Alcotest.(check int) "serial: fail-fast stops at the failure" 4 attempted;
  (* Parallel: shards past the failure may be dropped (fail-fast), but
     the exception that propagates is deterministically the lowest
     failing shard's — exactly what the serial run raises. The failure
     mark only decreases, so every index below the final mark was
     evaluated whatever the work-stealing schedule. *)
  let raised, attempted = failing_run 4 in
  Alcotest.(check string) "parallel: lowest shard's exception" "shard 3" raised;
  Alcotest.(check bool)
    "parallel: shards up to the failure all ran" true (attempted >= 4);
  Alcotest.(check bool) "parallel: no shard ran twice" true (attempted <= 10)

let test_clamp () =
  Alcotest.(check int) "zero clamps up" 1 (Parallel.clamp_jobs 0);
  Alcotest.(check int) "negative clamps up" 1 (Parallel.clamp_jobs (-3));
  Alcotest.(check int) "in range unchanged" 5 (Parallel.clamp_jobs 5);
  Alcotest.(check int)
    "huge clamps down" Parallel.max_jobs
    (Parallel.clamp_jobs 100_000);
  Alcotest.(check bool)
    "default is positive" true
    (Parallel.default_jobs () >= 1)

(* The work-stealing scheduler must rebalance deliberately uneven
   shard durations without perturbing the merged output: the early
   shards are much heavier than the late ones, so the workers that
   drain their initial chunk steal from the loaded ones mid-run. *)
let test_uneven_shards_deterministic () =
  let n = 64 in
  let work i =
    let spin = (n - i) * 4000 in
    let acc = ref i in
    for k = 1 to spin do
      acc := ((!acc * 7) + k) land 0xffff
    done;
    !acc
  in
  let serial = Parallel.run ~jobs:1 n work in
  List.iter
    (fun jobs ->
      Alcotest.(check (array int))
        (Printf.sprintf "uneven shards, jobs:%d = serial" jobs)
        serial
        (Parallel.run ~jobs n work))
    [ 2; 4; 7 ]

(* Worker-local state: [local] runs at most once per worker domain and
   its value is threaded to every shard that worker executes — the
   hook per-domain simulator reuse is built on. *)
let test_worker_local_state () =
  let created = Atomic.make 0 in
  let results =
    Parallel.run_partial_local ~jobs:4
      ~local:(fun () ->
        Atomic.incr created;
        ref 0)
      100
      (fun counter i ->
        incr counter;
        i * 3)
  in
  Array.iteri
    (fun i r ->
      match r with
      | Some v -> Alcotest.(check int) "shard result" (i * 3) v
      | None -> Alcotest.failf "shard %d skipped without cancellation" i)
    results;
  let made = Atomic.get created in
  Alcotest.(check bool)
    "local state built once per worker, not per shard" true
    (made >= 1 && made <= 4)

(* --- Domain-safe uid minting --------------------------------------------- *)

let test_two_domain_uid_uniqueness () =
  let n = 50_000 in
  let mint () = Array.init n (fun _ -> uid (wire 1)) in
  let d1 = Domain.spawn mint and d2 = Domain.spawn mint in
  let a = Domain.join d1 and b = Domain.join d2 in
  let seen = Hashtbl.create (4 * n) in
  Array.iter
    (fun u ->
      if Hashtbl.mem seen u then
        Alcotest.failf "duplicate uid %d minted across domains" u;
      Hashtbl.add seen u ())
    (Array.append a b);
  Alcotest.(check int) "all uids distinct" (2 * n) (Hashtbl.length seen)

(* Whole circuits elaborated concurrently stay structurally identical
   (same port names, same netlist size) — the sharded campaigns rely
   on rebuild-equivalence. *)
let test_concurrent_elaboration () =
  let build () =
    Saa2vga.build ~substrate:Saa2vga.Sram ~style:Saa2vga.Pattern ()
  in
  let circuits = Parallel.run ~jobs:4 4 (fun _ -> build ()) in
  let shape c =
    ( List.map fst (Circuit.inputs c),
      List.map fst (Circuit.outputs c),
      List.length (Circuit.signals c),
      List.length (Circuit.registers c),
      List.length (Circuit.memories c) )
  in
  let reference = shape (build ()) in
  Array.iter
    (fun c ->
      if shape c <> reference then
        Alcotest.fail "concurrently elaborated circuit differs structurally")
    circuits

(* --- Shared simulation plans --------------------------------------------- *)

(* Satellite regression: running faults through one shared plan with a
   *reused* instance (reset between runs) must classify exactly as
   fresh-simulator runs — no force/poke residue, no monitor state, no
   stale inputs leaking between work items. *)
let test_instance_reuse_matches_fresh () =
  let circuit = Faultsim.find_design "saa2vga_sram_pattern" () in
  let frame =
    Hwpat_video.Pattern.gradient ~width:6 ~height:6 ~depth:8
  in
  let budget = 8_000 in
  let events = Fault.random_campaign ~seed:11 ~n:4 ~max_cycle:400 circuit in
  let plan = Cyclesim.plan circuit in
  let sim = Cyclesim.of_plan plan in
  let fingerprint (collected, cycles, monitor, monitors, err_flag) =
    ( collected,
      cycles,
      Monitor.ok monitor,
      Option.map
        (fun v -> Format.asprintf "%a" Monitor.pp_violation v)
        (Monitor.first_violation monitor),
      monitors,
      err_flag )
  in
  List.iteri
    (fun k event ->
      let fresh =
        fingerprint (Faultsim.run_once ~events:[ event ] ~budget ~frame circuit)
      in
      let reused =
        fingerprint
          (Faultsim.run_once ~sim ~events:[ event ] ~budget ~frame circuit)
      in
      Alcotest.(check bool)
        (Printf.sprintf "fault %d: reused instance = fresh sim" k)
        true (fresh = reused))
    events;
  (* A fault-free run through the residue-laden instance must match a
     fresh fault-free run: the previous faults forced signals, poked
     state and flipped memory bits. *)
  let fresh = fingerprint (Faultsim.run_once ~budget ~frame circuit) in
  let reused = fingerprint (Faultsim.run_once ~sim ~budget ~frame circuit) in
  Alcotest.(check bool)
    "fault-free run after faulty ones: no residue" true (fresh = reused)

(* Satellite regression: instances stamped from one plan must never
   alias mutable state (register state, sync-read state, memory
   words). Hammer one instance from another domain — cycles, pokes,
   memory writes, forces — and check its sibling is byte-identical to
   a brand-new instance, statically and dynamically. *)
let test_plan_instances_isolated () =
  let circuit =
    Saa2vga.build ~substrate:Saa2vga.Sram ~style:Saa2vga.Pattern ()
  in
  let plan = Cyclesim.plan circuit in
  let hammered = Cyclesim.of_plan plan in
  let sibling = Cyclesim.of_plan plan in
  let reg = List.hd (Circuit.registers circuit) in
  let mem = List.hd (Circuit.memories circuit) in
  let d =
    Domain.spawn (fun () ->
        for _ = 1 to 50 do
          Cyclesim.cycle hammered
        done;
        Cyclesim.poke_state hammered reg (Bits.ones (width reg));
        (Cyclesim.memory_contents hammered mem).(0) <-
          Bits.ones (Signal.memory_width mem);
        Cyclesim.force hammered reg (Bits.ones (width reg));
        Cyclesim.settle hammered)
  in
  Domain.join d;
  (* sanity: the hammering actually landed on [hammered] *)
  Alcotest.(check bool)
    "hammered instance was mutated" true
    (Cyclesim.forced hammered reg <> None);
  let fresh = Cyclesim.of_plan plan in
  Alcotest.(check bool)
    "sibling holds no force" true
    (Cyclesim.forced sibling reg = None);
  Alcotest.(check bool)
    "sibling register state untouched" true
    (Bits.equal (Cyclesim.peek_state sibling reg) (Cyclesim.peek_state fresh reg));
  Alcotest.(check bool)
    "sibling memory words untouched" true
    (Array.for_all2 Bits.equal
       (Cyclesim.memory_contents sibling mem)
       (Cyclesim.memory_contents fresh mem));
  List.iter
    (fun s ->
      if not (Bits.equal (Cyclesim.peek sibling s) (Cyclesim.peek fresh s)) then
        Alcotest.failf "sibling diverges from fresh instance on %s"
          (Format.asprintf "%a" Signal.pp s))
    (Circuit.signals circuit);
  (* dynamic check: the sibling evolves exactly like a fresh instance *)
  for cycle = 1 to 100 do
    Cyclesim.cycle sibling;
    Cyclesim.cycle fresh;
    List.iter
      (fun (name, _) ->
        let a = !(Cyclesim.out_port sibling name)
        and b = !(Cyclesim.out_port fresh name) in
        if not (Bits.equal a b) then
          Alcotest.failf "cycle %d: sibling output %s diverges" cycle name)
      (Circuit.outputs circuit)
  done

(* --- Determinism: campaigns and sweeps at jobs:1 vs jobs:4 --------------- *)

(* Three lanes per batch: the ten faults make four batches, so jobs:4
   really shards the campaign (at the default 64 lanes it would be one
   batch). *)
let campaign ?checkpoint ?(resume = false) ~jobs () =
  Faultsim.run_campaign ?checkpoint ~resume ~lanes:3 ~jobs ~seed:5 ~faults:10
    ~frame_width:6 ~frame_height:6
    ~build:(Faultsim.find_design "saa2vga_sram_pattern")
    ~design:"saa2vga_sram_pattern" ()

let test_faultsim_jobs_deterministic () =
  let a = campaign ~jobs:1 () and b = campaign ~jobs:4 () in
  Alcotest.(check int)
    "baseline cycles" a.Faultsim.baseline_cycles b.Faultsim.baseline_cycles;
  let outcomes s =
    List.map
      (fun (r : Faultsim.result) -> Faultsim.outcome_name r.outcome)
      s.Faultsim.results
  in
  Alcotest.(check (list string)) "classifications" (outcomes a) (outcomes b);
  Alcotest.(check string) "rendered summary" (Faultsim.render a)
    (Faultsim.render b);
  Alcotest.(check string) "JSON bytes" (Faultsim.summary_to_json a)
    (Faultsim.summary_to_json b)

let sweep_points =
  List.map
    (fun (kind, target) -> Characterize.point kind target ~elem_width:8 ~depth:64)
    Hwpat_meta.Metamodel.
      [
        (Queue, Fifo_core); (Queue, Ext_sram); (Stack, Block_ram);
        (Vector, Block_ram);
      ]

let test_sweep_jobs_deterministic () =
  let a = Characterize.sweep ~jobs:1 ~points:sweep_points () in
  let b = Characterize.sweep ~jobs:4 ~points:sweep_points () in
  Alcotest.(check string) "table" (Design_space.to_table a)
    (Design_space.to_table b);
  Alcotest.(check string) "JSON bytes" (Design_space.to_json a)
    (Design_space.to_json b);
  Alcotest.(check bool)
    "all points measured" true
    (List.for_all (fun c -> c.Design_space.measured) a)

(* Fault descriptions must be uid-independent: two builds of the same
   design in one process mint different uids, yet the rendered
   campaign must not change. *)
let test_descriptions_rebuild_stable () =
  let describe_all () =
    let circuit =
      Saa2vga.build ~substrate:Saa2vga.Sram ~style:Saa2vga.Pattern ()
    in
    let events =
      Fault.random_campaign ~seed:9 ~n:16 ~max_cycle:500 circuit
    in
    List.map (Fault.describe_event_in circuit) events
  in
  Alcotest.(check (list string))
    "same descriptions across rebuilds" (describe_all ()) (describe_all ())

(* Satellite: the prove battery merged under work-stealing must be
   verdict- and order-identical at any job count. [seconds] is
   wall-clock — legitimately nondeterministic — so the fingerprint
   strips it and compares everything else. *)
let test_prove_jobs_deterministic () =
  let fingerprint (r : Prove.result) =
    Printf.sprintf "%s|%s|%b|%b|%s" r.Prove.name r.Prove.kind r.Prove.ok
      r.Prove.unknown r.Prove.status
  in
  let run jobs = List.map fingerprint (Prove.run ~smoke:true ~jobs ()) in
  let serial = run 1 in
  Alcotest.(check bool) "smoke battery is non-empty" true (serial <> []);
  Alcotest.(check (list string)) "prove jobs:1 = jobs:4" serial (run 4)

(* Satellite: checkpoint/resume composed with plan sharing. A campaign
   killed mid-flight (journal truncated to the header plus five
   completed faults, final line torn) and resumed at jobs:4 must
   render byte-identically to an uncheckpointed run — the resumed
   workers instantiate the shared plan afresh, replay the journaled
   verdicts, and re-run only the missing faults. *)
let test_resume_byte_identical () =
  let with_temp_path f =
    let path = Filename.temp_file "hwpat_test_parscale" ".jsonl" in
    Fun.protect
      ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
      (fun () -> f path)
  in
  let reference = Faultsim.summary_to_json (campaign ~jobs:4 ()) in
  with_temp_path @@ fun path ->
  ignore (campaign ~checkpoint:path ~jobs:4 ());
  let lines =
    let ic = open_in path in
    Fun.protect ~finally:(fun () -> close_in_noerr ic) @@ fun () ->
    let acc = ref [] in
    (try
       while true do
         acc := input_line ic :: !acc
       done
     with End_of_file -> ());
    List.rev !acc
  in
  Alcotest.(check bool)
    "journal holds a header and the faults" true
    (List.length lines > 6);
  with_temp_path @@ fun partial_path ->
  let oc = open_out partial_path in
  List.iteri
    (fun i line ->
      if i <= 5 then (output_string oc line; output_char oc '\n'))
    lines;
  output_string oc "{\"key\": \"torn";
  close_out oc;
  let resumed = campaign ~checkpoint:partial_path ~resume:true ~jobs:4 () in
  Alcotest.(check string)
    "resumed summary is byte-identical"
    reference
    (Faultsim.summary_to_json resumed)

(* --- The ack-guard timeout bugfix ---------------------------------------- *)

(* A harness with the measurement port convention whose acks never
   rise: the workload's 200-cycle guard must trip and be *reported*,
   not silently folded into a cycles-per-access figure. *)
let deaf_harness () =
  let get_req = input "get_req" 1 in
  let put_req = input "put_req" 1 in
  let put_data = input "put_data" 8 in
  Circuit.create_exn ~name:"deaf"
    [
      ("get_ack", get_req &: gnd);
      ("get_data", put_data &: zero 8);
      ("put_ack", put_req &: gnd);
    ]

let test_measure_timeout_recorded () =
  let sim = Cyclesim.create (deaf_harness ()) in
  let per_access, _monitor, timed_out =
    Characterize.measure Hwpat_meta.Metamodel.Queue sim
  in
  Alcotest.(check bool) "timeout recorded" true timed_out;
  Alcotest.(check bool)
    "no bogus cycles-per-access" true
    (per_access = infinity)

let test_unmeasurable_excluded () =
  let mk label measured cycles =
    {
      Design_space.label;
      container = "queue";
      target = label;
      elem_width = 8;
      depth = 64;
      luts = 50;
      ffs = 50;
      brams = 0;
      access_cycles = cycles;
      fmax_mhz = 90.0;
      power_mw = 40.0;
      measured;
    }
  in
  let good = mk "good" true 4.0 in
  (* The bogus figure a silent timeout used to produce would dominate
     every honest candidate. *)
  let broken = mk "broken" false 0.1 in
  let all = [ broken; good ] in
  let front = Design_space.pareto_front all in
  Alcotest.(check (list string))
    "front excludes unmeasurable" [ "good" ]
    (List.map (fun c -> c.Design_space.label) front);
  Alcotest.(check (list string))
    "feasible excludes unmeasurable" [ "good" ]
    (List.map
       (fun c -> c.Design_space.label)
       (Design_space.feasible Design_space.no_constraints all));
  Alcotest.(check (list string))
    "unmeasurable reported" [ "broken" ]
    (List.map (fun c -> c.Design_space.label) (Design_space.unmeasurable all));
  let report =
    Characterize.region_report ~constraints:Design_space.no_constraints all
  in
  Alcotest.(check bool)
    "region report names the timeout" true
    (let needle = "unmeasurable" in
     let rec find i =
       i + String.length needle <= String.length report
       && (String.sub report i (String.length needle) = needle || find (i + 1))
     in
     find 0);
  let table = Design_space.to_table all in
  Alcotest.(check bool)
    "table marks the timeout" true
    (let needle = "timeout" in
     let rec find i =
       i + String.length needle <= String.length table
       && (String.sub table i (String.length needle) = needle || find (i + 1))
     in
     find 0)

let () =
  Alcotest.run "parallel"
    [
      ( "runner",
        [
          Alcotest.test_case "preserves submission order" `Quick test_run_order;
          Alcotest.test_case "propagates lowest shard exception" `Quick
            test_run_exception;
          Alcotest.test_case "preserves the shard's backtrace" `Quick
            test_run_backtrace;
          Alcotest.test_case "job clamping" `Quick test_clamp;
          Alcotest.test_case "uneven shards steal deterministically" `Quick
            test_uneven_shards_deterministic;
          Alcotest.test_case "worker-local state built once per domain" `Quick
            test_worker_local_state;
        ] );
      ( "domain-safety",
        [
          Alcotest.test_case "two-domain uid uniqueness" `Quick
            test_two_domain_uid_uniqueness;
          Alcotest.test_case "concurrent elaboration is structural" `Quick
            test_concurrent_elaboration;
        ] );
      ( "plan-sharing",
        [
          Alcotest.test_case "reused instance classifies like fresh sim" `Quick
            test_instance_reuse_matches_fresh;
          Alcotest.test_case "plan instances never alias state" `Quick
            test_plan_instances_isolated;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "faultsim jobs:1 = jobs:4" `Quick
            test_faultsim_jobs_deterministic;
          Alcotest.test_case "sweep jobs:1 = jobs:4" `Quick
            test_sweep_jobs_deterministic;
          Alcotest.test_case "descriptions stable across rebuilds" `Quick
            test_descriptions_rebuild_stable;
          Alcotest.test_case "prove jobs:1 = jobs:4" `Quick
            test_prove_jobs_deterministic;
          Alcotest.test_case "resume is byte-identical" `Quick
            test_resume_byte_identical;
        ] );
      ( "timeout-guard",
        [
          Alcotest.test_case "measure records tripped guard" `Quick
            test_measure_timeout_recorded;
          Alcotest.test_case "unmeasurable points excluded and reported" `Quick
            test_unmeasurable_excluded;
        ] );
    ]
