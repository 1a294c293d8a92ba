(* The supervised execution layer: retry/backoff of transient
   failures, watchdog timeouts, fail-fast on fatal errors,
   deterministic outcomes across job counts, and the crash-safe
   checkpoint journal (torn final lines, resume skipping, config
   binding). *)

open Hwpat_core

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

(* Retries are deterministic: a shard that succeeds on its third
   attempt comes back [Done] under a 3-retry policy, and the retry
   count lands on the metrics. *)
let test_retry_until_success () =
  let policy = { Supervise.default_policy with retries = 3; backoff_s = 0.0 } in
  let metrics = Hwpat_obs.Metrics.create () in
  let outcomes =
    Supervise.run_shards ~jobs:1 ~policy ~metrics
      ~key:(fun i -> string_of_int i)
      1
      (fun ctx _ ->
        if Supervise.attempt ctx < 3 then
          raise (Supervise.Transient "flaky dependency");
        "ok")
  in
  (match outcomes.(0) with
  | Supervise.Done v -> check_string "value" "ok" v
  | Supervise.Unfinished { reason; _ } -> Alcotest.fail ("unfinished: " ^ reason));
  check_int "two retries recorded" 2
    (Hwpat_obs.Metrics.counter_value metrics "supervise.retries")

let test_retries_exhausted () =
  let policy = { Supervise.default_policy with retries = 2; backoff_s = 0.0 } in
  let metrics = Hwpat_obs.Metrics.create () in
  let calls = ref 0 in
  let outcomes =
    Supervise.run_shards ~jobs:1 ~policy ~metrics
      ~key:(fun i -> string_of_int i)
      1
      (fun _ _ ->
        incr calls;
        raise (Supervise.Transient "always down"))
  in
  (match outcomes.(0) with
  | Supervise.Done _ -> Alcotest.fail "should not succeed"
  | Supervise.Unfinished { reason; attempts } ->
    check_string "reason" "transient: always down" reason;
    check_int "attempts = 1 + retries" 3 attempts);
  check_int "every attempt ran" 3 !calls;
  check_int "unfinished counted" 1
    (Hwpat_obs.Metrics.counter_value metrics "supervise.unfinished")

(* The watchdog: a shard that never finishes is cut off at its
   deadline and reported, not hung.  [check] polls the clock, so the
   shard just has to call it from its inner loop. *)
let test_watchdog_timeout () =
  let policy =
    { Supervise.retries = 1; backoff_s = 0.0; shard_timeout_s = 0.02 }
  in
  let metrics = Hwpat_obs.Metrics.create () in
  let outcomes =
    Supervise.run_shards ~jobs:1 ~policy ~metrics
      ~key:(fun i -> string_of_int i)
      1
      (fun ctx _ ->
        while true do
          Supervise.check ctx
        done)
  in
  (match outcomes.(0) with
  | Supervise.Done _ -> Alcotest.fail "an infinite loop cannot finish"
  | Supervise.Unfinished { reason; attempts } ->
    check_bool "reason names the timeout" true
      (String.length reason >= 7 && String.sub reason 0 7 = "timeout");
    check_int "retried once" 2 attempts);
  check_int "both attempts timed out" 2
    (Hwpat_obs.Metrics.counter_value metrics "supervise.timeouts")

(* Outcome arrays are identical whatever the job count: crashes and
   give-ups land on the same shards with the same reasons. *)
let outcome_fingerprint outcomes =
  Array.to_list
    (Array.map
       (function
         | Supervise.Done v -> Printf.sprintf "done:%d" v
         | Supervise.Unfinished { reason; attempts } ->
           Printf.sprintf "unfinished:%s:%d" reason attempts)
       outcomes)

let test_jobs_deterministic () =
  let policy = { Supervise.default_policy with retries = 1; backoff_s = 0.0 } in
  let run jobs =
    Supervise.run_shards ~jobs ~policy
      ~key:(fun i -> string_of_int i)
      12
      (fun _ i ->
        if i mod 3 = 0 then
          raise (Supervise.Transient (Printf.sprintf "shard %d down" i));
        i * i)
  in
  Alcotest.(check (list string))
    "jobs:1 = jobs:4"
    (outcome_fingerprint (run 1))
    (outcome_fingerprint (run 4))

(* Fatal (non-transient) errors are not retried or absorbed: the
   lowest failing shard's exception escapes, identically at any job
   count. *)
let test_fatal_fail_fast () =
  let raised jobs =
    try
      ignore
        (Supervise.run_shards ~jobs
           ~key:(fun i -> string_of_int i)
           10
           (fun _ i ->
             if i = 4 || i = 8 then failwith (Printf.sprintf "fatal %d" i);
             i));
      "no exception"
    with Failure msg -> msg
  in
  check_string "serial" "fatal 4" (raised 1);
  check_string "parallel" "fatal 4" (raised 4)

let test_cancelled_before_start () =
  let cancel = Parallel.token () in
  Parallel.cancel cancel;
  let metrics = Hwpat_obs.Metrics.create () in
  let outcomes =
    Supervise.run_shards ~jobs:2 ~cancel ~metrics
      ~key:(fun i -> string_of_int i)
      4
      (fun _ i -> i)
  in
  Array.iter
    (function
      | Supervise.Done _ -> Alcotest.fail "nothing should run after cancel"
      | Supervise.Unfinished { reason; attempts } ->
        check_string "reason" "cancelled" reason;
        check_int "never attempted" 0 attempts)
    outcomes;
  check_int "all four counted" 4
    (Hwpat_obs.Metrics.counter_value metrics "supervise.cancelled")

(* --- the checkpoint journal ---------------------------------------------- *)

let with_temp_path f =
  let path = Filename.temp_file "hwpat_test_journal" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

let write_file path text =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc text)

let read_lines path =
  In_channel.with_open_bin path In_channel.input_all
  |> String.split_on_char '\n' |> List.filter (( <> ) "")

let encode = string_of_int
let decode _ data = int_of_string_opt data

(* Resume replays journaled shards without re-running them, and the
   merged outcomes equal an uninterrupted run's. *)
let test_resume_equals_uninterrupted () =
  with_temp_path @@ fun path ->
  let key i = Printf.sprintf "shard-%d" i in
  let n = 10 in
  let full _ i = 100 + i in
  let uninterrupted =
    let j = Journal.start ~path ~config:"test v1" ~resume:false in
    Fun.protect ~finally:(fun () -> Journal.close j) @@ fun () ->
    Supervise.run_shards ~jobs:1 ~journal:j ~key ~encode ~decode n full
  in
  (* Second journal: pretend the first run died after five shards by
     rebuilding a journal holding only shards 0-4, with the final line
     torn mid-record as a SIGKILL would leave it. *)
  with_temp_path @@ fun partial_path ->
  let lines = read_lines path in
  check_int "journal = header + one line per shard" (n + 1)
    (List.length lines);
  let oc = open_out partial_path in
  List.iteri
    (fun i line ->
      if i <= 5 then (output_string oc line; output_char oc '\n'))
    lines;
  output_string oc "{\"key\": \"shard-6\", \"da";
  close_out oc;
  let ran = ref [] in
  let resumed =
    let j = Journal.start ~path:partial_path ~config:"test v1" ~resume:true in
    Fun.protect ~finally:(fun () -> Journal.close j) @@ fun () ->
    check_int "five surviving records loaded" 5 (Journal.resumed j);
    Supervise.run_shards ~jobs:1 ~journal:j ~key ~encode ~decode n
      (fun ctx i ->
        ran := i :: !ran;
        full ctx i)
  in
  Alcotest.(check (list string))
    "resumed outcomes equal uninterrupted"
    (outcome_fingerprint uninterrupted)
    (outcome_fingerprint resumed);
  Alcotest.(check (list int))
    "only the unjournaled shards re-ran" [ 5; 6; 7; 8; 9 ]
    (List.sort compare !ran)

(* A small real campaign for the journal-format tests: six faults on
   the protected design, 4x4 frames, one job. *)
let design = "saa2vga_sram_protected"

let campaign ?metrics ?plan ?checkpoint ?resume () =
  Faultsim.run_campaign ?metrics ?plan ?checkpoint ?resume ~jobs:1 ~seed:16
    ~faults:6 ~frame_width:4 ~frame_height:4
    ~build:(Faultsim.find_design design) ~design ()

(* The journal of [campaign ~checkpoint ()] as the previous writer
   printed it: spaced members, OCaml-escaped strings.  Plus a torn
   tail, as a kill mid-write leaves it. *)
let spaced_journal =
  {|{"hwpat_checkpoint": 1, "config": "faultsim design=saa2vga_sram_protected seed=16 faults=6 frame=4x4"}
{"key": "0:@73 stuck out_sram_state = 00 for 16 cycles", "data": "masked false true 190 \"\""}
{"key": "3:@43 stuck rbuffer_count = 1111111111 for 5 cycles", "data": "detected false true 170 \"cycle 43: [rbuffer] count: occupancy stepped 0 -> 1023 in one cycle\""}
{"key": "4:@66 seu reg in_sram_waits bit 0", "data": "masked false true 170 \"\""}
{"key": "1:@139 stuck in_sram_wd_try = 0 for 24 cycles", "data": "masked false true 170 \"\""}
{"key": "5:@24 stuck wbuffer_state = 00 for 12 cycles", "data": "detected false true 185 \"cycle 24: [out_sram] ack: ack asserted with no request pending\""}
{"key": "2:@109 stuck copy_state = 00 for 31 cycles", "data": "silent false false 744 \"\""}
{"key": "6:@1|}

(* A journal in the older spaced layout replays every record, and the
   resumed summary is byte-identical to an uninterrupted run's.  Then
   seeded truncations and byte flips of it: each resume either raises
   what journal.mli documents (Config_mismatch for a changed header
   config, Failure for a header that is not one) or loads every record
   that lies wholly before the damage. *)
let test_spaced_and_damaged_journals () =
  with_temp_path @@ fun path ->
  write_file path spaced_journal;
  let metrics = Hwpat_obs.Metrics.create () in
  let resumed = campaign ~metrics ~checkpoint:path ~resume:true () in
  check_int "every record replayed" 6
    (Hwpat_obs.Metrics.counter_value metrics "supervise.skipped");
  check_string "summary byte-identical"
    (Faultsim.summary_to_json (campaign ()))
    (Faultsim.summary_to_json resumed);
  let field k line =
    match Hwpat_obs.Json.parse line with
    | Ok v -> Hwpat_obs.Json.get_string v k ~default:""
    | Error e -> Alcotest.fail e
  in
  let header = List.hd (String.split_on_char '\n' spaced_journal) in
  (* (offset just past the record's newline, key, data); the torn tail
     has no newline and is not a record *)
  let records =
    List.filteri (fun i _ -> i > 0) (String.split_on_char '\n' spaced_journal)
    |> List.fold_left
         (fun (acc, off) l ->
           let stop = off + String.length l + 1 in
           if stop > String.length spaced_journal then (acc, stop)
           else ((stop, field "key" l, field "data" l) :: acc, stop))
         ([], String.length header + 1)
    |> fst
  in
  let plan = Hwpat_rtl.Cyclesim.plan (Faultsim.find_design design ()) in
  let rng = Random.State.make [| 16 |] in
  for i = 1 to 120 do
    let at = Random.State.int rng (String.length spaced_journal) in
    let flip j ch =
      if j <> at then ch
      else Char.chr (Char.code ch lxor (1 + Random.State.int rng 255))
    in
    let mutated =
      if i mod 2 = 0 then String.sub spaced_journal 0 at
      else String.mapi flip spaced_journal
    in
    let what = Printf.sprintf "mutation %d at byte %d" i at in
    write_file path mutated;
    (match Journal.start ~path ~config:(field "config" header) ~resume:true with
    | j ->
      Fun.protect ~finally:(fun () -> Journal.close j) @@ fun () ->
      List.iter
        (fun (stop, key, data) ->
          if stop <= at then
            Alcotest.(check (option string)) what (Some data) (Journal.find j key))
        records
    | exception (Journal.Config_mismatch _ | Failure _) -> ()
    | exception e -> Alcotest.failf "%s: %s escaped" what (Printexc.to_string e));
    (* The campaign itself resumes from whatever survived. *)
    write_file path mutated;
    match campaign ~plan ~checkpoint:path ~resume:true () with
    | _ | (exception (Journal.Config_mismatch _ | Failure _)) -> ()
    | exception e ->
      Alcotest.failf "%s: campaign raised %s" what (Printexc.to_string e)
  done

(* A journal written under one campaign configuration refuses to
   resume another. *)
let test_config_mismatch () =
  with_temp_path @@ fun path ->
  let j = Journal.start ~path ~config:"faultsim seed=1" ~resume:false in
  Journal.record j ~key:"k" "v";
  Journal.close j;
  match Journal.start ~path ~config:"faultsim seed=2" ~resume:true with
  | _ -> Alcotest.fail "config mismatch must raise"
  | exception Journal.Config_mismatch { expected; found; _ } ->
    check_string "expected" "faultsim seed=2" expected;
    check_string "found" "faultsim seed=1" found

(* Without --resume an existing journal is overwritten, not
   validated: a fresh run under a new config starts clean. *)
let test_fresh_start_overwrites () =
  with_temp_path @@ fun path ->
  let j = Journal.start ~path ~config:"old config" ~resume:false in
  Journal.record j ~key:"stale" "1";
  Journal.close j;
  let j = Journal.start ~path ~config:"new config" ~resume:false in
  Fun.protect ~finally:(fun () -> Journal.close j) @@ fun () ->
  check_int "no stale records" 0 (Journal.completed j);
  check_bool "stale key gone" true (Journal.find j "stale" = None)

(* A non-journal file is rejected rather than silently rewritten. *)
let test_foreign_file_rejected () =
  with_temp_path @@ fun path ->
  let oc = open_out path in
  output_string oc "this is not a checkpoint\n";
  close_out oc;
  match Journal.start ~path ~config:"c" ~resume:true with
  | _ -> Alcotest.fail "foreign file must be rejected"
  | exception Failure msg ->
    check_bool "diagnostic names the file" true
      (String.length msg > 0 && msg <> "")

(* Decode rejecting a payload (corrupt or from an older encoding)
   must re-run the shard, not crash or trust the bytes. *)
let test_corrupt_payload_reruns () =
  with_temp_path @@ fun path ->
  let j = Journal.start ~path ~config:"c" ~resume:false in
  Journal.record j ~key:"shard-0" "not an int";
  Journal.close j;
  let ran = ref false in
  let outcomes =
    let j = Journal.start ~path ~config:"c" ~resume:true in
    Fun.protect ~finally:(fun () -> Journal.close j) @@ fun () ->
    Supervise.run_shards ~jobs:1 ~journal:j
      ~key:(fun i -> Printf.sprintf "shard-%d" i)
      ~encode ~decode 1
      (fun _ i ->
        ran := true;
        i + 7)
  in
  check_bool "shard re-ran" true !ran;
  match outcomes.(0) with
  | Supervise.Done v -> check_int "fresh value" 7 v
  | Supervise.Unfinished _ -> Alcotest.fail "should have completed"

let () =
  Alcotest.run "supervise"
    [
      ( "retry",
        [
          Alcotest.test_case "succeeds after transient failures" `Quick
            test_retry_until_success;
          Alcotest.test_case "exhausted retries report unfinished" `Quick
            test_retries_exhausted;
          Alcotest.test_case "watchdog cuts off a hung shard" `Quick
            test_watchdog_timeout;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "outcomes identical jobs:1 vs jobs:4" `Quick
            test_jobs_deterministic;
          Alcotest.test_case "fatal errors fail fast, lowest shard" `Quick
            test_fatal_fail_fast;
          Alcotest.test_case "cancellation marks shards unfinished" `Quick
            test_cancelled_before_start;
        ] );
      ( "journal",
        [
          Alcotest.test_case "torn-journal resume equals uninterrupted" `Quick
            test_resume_equals_uninterrupted;
          Alcotest.test_case "spaced and damaged journals resume" `Quick
            test_spaced_and_damaged_journals;
          Alcotest.test_case "config mismatch rejected" `Quick
            test_config_mismatch;
          Alcotest.test_case "fresh start overwrites" `Quick
            test_fresh_start_overwrites;
          Alcotest.test_case "foreign file rejected" `Quick
            test_foreign_file_rejected;
          Alcotest.test_case "corrupt payload re-runs the shard" `Quick
            test_corrupt_payload_reruns;
        ] );
    ]
