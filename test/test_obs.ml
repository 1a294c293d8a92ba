(* The observability layer: span nesting, disabled-handle no-ops,
   histogram bucketing, and well-formedness of the JSON exporters. *)

open Hwpat_obs

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let contains needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

(* Exporter output goes back through the strict parser: a document
   that does not parse fails the test with the parser's message. *)
let parse what text =
  match Json.parse text with
  | Ok v -> v
  | Error e -> Alcotest.failf "%s is not JSON: %s" what e

(* [at doc ["a"; "b"]] is member [b] of member [a]. *)
let at doc keys =
  List.fold_left (fun v k -> Option.bind v (Json.member k)) (Some doc) keys

let check_json msg expected actual =
  Alcotest.(check (option string)) msg (Some (Json.to_string expected))
    (Option.map Json.to_string actual)

(* --- Trace ---------------------------------------------------------------- *)

let test_span_nesting () =
  let t = Trace.create () in
  let r =
    Trace.span t "outer" (fun () ->
        Trace.span t "inner" (fun () -> ());
        Trace.span t "inner" (fun () -> ());
        17)
  in
  check_int "span returns body value" 17 r;
  Trace.span t "other" (fun () -> ());
  let json = Trace.to_chrome_json t in
  check_bool "outer event" true (contains "\"name\":\"outer\"" json);
  check_bool "inner event" true (contains "\"name\":\"inner\"" json);
  let s = Trace.summary t in
  (* Aggregated by path: the two [inner] calls fold into one line,
     indented under [outer]; [other] is a root at column 0. *)
  check_bool "summary aggregates inner" true (contains "inner" s);
  check_bool "inner indented under outer" true (contains "\n  inner" s);
  check_bool "other at root, unindented" true
    (contains "other" s && not (contains "  other" s));
  check_bool "two inner calls" true (contains " 2 call" s)

let test_span_exception () =
  let t = Trace.create () in
  (try
     Trace.span t "boom" (fun () -> failwith "inside")
   with Failure _ -> ());
  let json = Trace.to_chrome_json t in
  check_bool "span recorded despite raise" true
    (contains "\"name\":\"boom\"" json);
  (* The stack must have been popped: a following span is a root, not
     nested (= indented) under the raising one. *)
  Trace.span t "after" (fun () -> ());
  let s = Trace.summary t in
  check_bool "stack popped after raise" true
    (contains "after" s && not (contains "  after" s))

let test_annotate () =
  let t = Trace.create () in
  Trace.span t "work" (fun () ->
      Trace.annotate t "verdict" (Trace.String "ok");
      Trace.annotate t "verdict" (Trace.String "better");
      Trace.annotate t "n" (Trace.Int 3));
  let json = Trace.to_chrome_json t in
  check_bool "last annotation wins" true (contains "\"better\"" json);
  check_bool "overwritten value gone" false (contains "\"ok\"" json);
  check_bool "int annotation" true (contains "\"n\":3" json)

let test_null_trace () =
  check_bool "null disabled" false (Trace.enabled Trace.null);
  check_bool "active enabled" true (Trace.enabled (Trace.create ()));
  let ran = ref false in
  let r = Trace.span Trace.null "ignored" (fun () -> ran := true; 5) in
  check_int "null span runs body" 5 r;
  check_bool "body ran" true !ran;
  Trace.instant Trace.null "nothing";
  Trace.annotate Trace.null "k" (Trace.Bool true);
  check_json "null trace has no events" (Json.List [])
    (at (parse "null trace" (Trace.to_chrome_json Trace.null)) [ "traceEvents" ])

let test_trace_json_well_formed () =
  let t = Trace.create () in
  Trace.span t "needs \"escaping\"\n\\here" (fun () ->
      Trace.instant t "marker" ~args:[ ("f", Trace.Float 1.5) ];
      Trace.counter t "gauge" [ ("series", 2.0) ]);
  Trace.span t "args"
    ~args:
      [
        ("i", Trace.Int (-3));
        ("f", Trace.Float nan);
        ("s", Trace.String "x");
        ("b", Trace.Bool false);
      ]
    (fun () -> ());
  let json = Trace.to_chrome_json t in
  ignore (parse "chrome trace" json);
  check_bool "complete events" true (contains "\"ph\":\"X\"" json);
  check_bool "instant event" true (contains "\"ph\":\"i\"" json);
  check_bool "counter event" true (contains "\"ph\":\"C\"" json);
  (* NaN must not leak into the JSON as a bare token. *)
  check_bool "no nan token" false (contains "nan" json)

(* --- Metrics -------------------------------------------------------------- *)

let test_bucketing () =
  check_int "v<=0 in bucket 0" 0 (Metrics.bucket_of 0);
  check_int "negative in bucket 0" 0 (Metrics.bucket_of (-7));
  check_int "1 in bucket 1" 1 (Metrics.bucket_of 1);
  check_int "2 in bucket 2" 2 (Metrics.bucket_of 2);
  check_int "3 in bucket 2" 2 (Metrics.bucket_of 3);
  check_int "4 in bucket 3" 3 (Metrics.bucket_of 4);
  check_int "1023 in bucket 10" 10 (Metrics.bucket_of 1023);
  check_int "1024 in bucket 11" 11 (Metrics.bucket_of 1024);
  (* max_int has 62 significant bits, so it lands in bucket 62 — still
     inside the array even before clamping kicks in. *)
  check_int "max_int bucket" 62 (Metrics.bucket_of max_int);
  check_bool "every bucket in range" true
    (Metrics.bucket_of max_int < Metrics.buckets)

(* Satellite regression: the zero/negative boundary is contract.
   Every [v <= 0] lands in bucket 0 — never a negative index — and
   each power of two opens the next bucket, so bucket [k >= 1] covers
   exactly [2^(k-1) .. 2^k - 1] until the final clamp. Checked both on
   [bucket_of] directly and end-to-end through [observe]. *)
let test_bucket_boundaries () =
  List.iter
    (fun v ->
      check_int (Printf.sprintf "%d in bucket 0" v) 0 (Metrics.bucket_of v))
    [ 0; -1; -2; -1024; min_int ];
  for k = 1 to 62 do
    check_int
      (Printf.sprintf "2^%d opens bucket %d" (k - 1) k)
      (min (Metrics.buckets - 1) k)
      (Metrics.bucket_of (1 lsl (k - 1)));
    check_int
      (Printf.sprintf "2^%d - 1 closes bucket %d" k k)
      (min (Metrics.buckets - 1) k)
      (Metrics.bucket_of ((1 lsl k) - 1))
  done;
  (* Zero and negative observations survive the round trip into the
     histogram's bucket 0 (and the sum, which may go negative). *)
  let m = Metrics.create () in
  Metrics.observe m "h" 0;
  Metrics.observe m "h" (-5);
  Metrics.observe m "h" 3;
  let h k = at (parse "metrics" (Metrics.to_json m)) [ "histograms"; "h"; k ] in
  check_json "count 3" (Json.Int 3) (h "count");
  check_json "sum -2" (Json.Int (-2)) (h "sum");
  check_json "buckets [2, 0, 1]"
    (Json.List [ Json.Int 2; Json.Int 0; Json.Int 1 ])
    (h "buckets")

(* Satellite regression: the SAT solver pre-aggregates its
   learned-clause size histogram and hands it to [add_histogram], so
   its bucketing function must be THE [Metrics.bucket_of] convention —
   same bucket for every value, same array length — or the merged
   histogram silently shears. The solver was once the deviating side. *)
let test_solver_bucket_alignment () =
  let module Solver = Hwpat_formal.Solver in
  for v = -3 to 5000 do
    check_int
      (Printf.sprintf "size_bucket %d = bucket_of %d" v v)
      (Metrics.bucket_of v) (Solver.size_bucket v)
  done;
  List.iter
    (fun v ->
      check_int
        (Printf.sprintf "size_bucket %d = bucket_of %d" v v)
        (Metrics.bucket_of v) (Solver.size_bucket v))
    [ 1 lsl 20; (1 lsl 30) - 1; 1 lsl 45; max_int; min_int ];
  (* And the histogram a real solver emits has the Metrics shape. *)
  let s = Solver.create () in
  let a = Solver.new_var s and b = Solver.new_var s and c = Solver.new_var s in
  List.iter (Solver.add_clause s)
    [ [ a; b ]; [ a; -b; c ]; [ -a; c ]; [ -c; b ]; [ -a; -b; -c ] ];
  ignore (Solver.solve s);
  check_int "solver histogram is Metrics-shaped" Metrics.buckets
    (Array.length (Solver.stats s).Solver.learned_size_buckets)

let test_counters () =
  let m = Metrics.create () in
  check_int "absent counter reads 0" 0 (Metrics.counter_value m "none");
  Metrics.incr m "a";
  Metrics.incr m ~by:4 "a";
  check_int "incr accumulates" 5 (Metrics.counter_value m "a");
  Metrics.incr Metrics.null "a";
  check_int "null counter stays 0" 0 (Metrics.counter_value Metrics.null "a");
  check_bool "null disabled" false (Metrics.enabled Metrics.null)

let test_histogram_merge () =
  let m = Metrics.create () in
  Metrics.observe m "h" 3;
  Metrics.observe m "h" 100;
  (* Merge pre-aggregated buckets the way Solver_obs does. *)
  let pre = Array.make 16 0 in
  pre.(Metrics.bucket_of 3) <- 2;
  Metrics.add_histogram m "h" ~count:2 ~sum:6 pre;
  let h k = at (parse "metrics" (Metrics.to_json m)) [ "histograms"; "h"; k ] in
  check_json "merged count" (Json.Int 4) (h "count");
  check_json "merged sum" (Json.Int 109) (h "sum");
  (* Bucket 2 holds the direct 3 plus the two merged 3s. *)
  check_json "bucket 2 = 3 observations" (Json.Int 3)
    (match h "buckets" with Some (Json.List l) -> List.nth_opt l 2 | _ -> None)

let test_metrics_json_deterministic () =
  let build order =
    let m = Metrics.create () in
    List.iter (fun k -> Metrics.incr m k) order;
    Metrics.gauge m "g" 2.5;
    Metrics.to_json m
  in
  check_string "sorted keys, insertion order irrelevant"
    (build [ "b"; "a"; "c" ])
    (build [ "c"; "a"; "b" ]);
  check_json "null metrics has empty counters" (Json.Obj [])
    (at (parse "null metrics" (Metrics.to_json Metrics.null)) [ "counters" ])

(* --- One codec ------------------------------------------------------------- *)

(* A quote, a backslash, a control byte and a UTF-8 "é": every emitter
   must print a document the strict parser accepts and that gives the
   string back unchanged. *)
let test_hostile_strings () =
  let hostile = "q\"b\\c\001e\xc3\xa9" in
  let first_member what text path key =
    match at (parse what text) path with
    | Some (Json.List (x :: _)) ->
      check_json what (Json.String hostile) (Json.member key x)
    | _ -> Alcotest.failf "%s: no list at the expected path" what
  in
  let t = Trace.create () in
  Trace.span t hostile ignore;
  first_member "span name" (Trace.to_chrome_json t) [ "traceEvents" ] "name";
  let m = Metrics.create () in
  Metrics.incr m hostile;
  check_json "metric key" (Json.Int 1)
    (at (parse "metrics" (Metrics.to_json m)) [ "counters"; hostile ]);
  let open Hwpat_core in
  let fault =
    { Faultsim.description = "f"; outcome = Faultsim.Detected;
      detail = Some hostile; err_flag = false; completed = true; cycles = 1 }
  in
  first_member "fault detail"
    (Faultsim.summary_to_json
       { design = "d"; seed = 1; monitors = 0; baseline_cycles = 1;
         results = [ fault ] })
    [ "results" ] "detail";
  let proof =
    { Prove.name = "n"; kind = "monitor"; ok = true; unknown = false;
      status = hostile; seconds = 0.5 }
  in
  first_member "prove status"
    (Json.to_string (Prove.to_json ~jobs:1 ~smoke:true [ proof ]))
    [ "results" ] "status";
  let candidate =
    { Hwpat_synthesis.Design_space.label = hostile; container = "queue";
      target = "fifo"; elem_width = 8; depth = 16; luts = 1; ffs = 1;
      brams = 0; access_cycles = 1.0; fmax_mhz = 100.0; power_mw = 1.0;
      measured = true }
  in
  first_member "design-space label"
    (Hwpat_synthesis.Design_space.to_json [ candidate ]) [] "label"

let () =
  Alcotest.run "obs"
    [
      ( "trace",
        [
          Alcotest.test_case "span nesting and summary" `Quick
            test_span_nesting;
          Alcotest.test_case "span records on raise" `Quick
            test_span_exception;
          Alcotest.test_case "annotate innermost span" `Quick test_annotate;
          Alcotest.test_case "null trace is inert" `Quick test_null_trace;
          Alcotest.test_case "chrome json well-formed" `Quick
            test_trace_json_well_formed;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "log2 bucketing" `Quick test_bucketing;
          Alcotest.test_case "solver size_bucket = Metrics.bucket_of" `Quick
            test_solver_bucket_alignment;
          Alcotest.test_case "bucket boundaries (zero/negative/powers)" `Quick
            test_bucket_boundaries;
          Alcotest.test_case "counters" `Quick test_counters;
          Alcotest.test_case "histogram merge" `Quick test_histogram_merge;
          Alcotest.test_case "json deterministic and valid" `Quick
            test_metrics_json_deterministic;
        ] );
      ( "json",
        [
          Alcotest.test_case "hostile strings round-trip every emitter" `Quick
            test_hostile_strings;
        ] );
    ]
