(* The design-service daemon: JSON framing, canonical cache keys, LRU
   correctness, the worker pool, and full request/response sessions
   over socketpairs — including cached-vs-fresh byte-identity,
   concurrent clients against a shared cache, per-request deadlines,
   admission control and both shutdown paths. *)

open Hwpat_serve

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

(* --- Json ----------------------------------------------------------------- *)

let test_json_roundtrip () =
  let text = {|{"b":[1,2.5,"x",true,null],"a":{"k":"\u0041"}}|} in
  match Json.parse text with
  | Error e -> Alcotest.fail e
  | Ok v ->
    check_string "compact deterministic rendering"
      {|{"b":[1,2.5,"x",true,null],"a":{"k":"A"}}|}
      (Json.to_string v)

let test_json_rejects () =
  let bad input =
    match Json.parse input with
    | Ok _ -> Alcotest.fail (Printf.sprintf "accepted %S" input)
    | Error e ->
      check_bool "error names a byte offset" true
        (String.length e > 0
        && String.split_on_char ' ' e |> List.exists (fun w -> w = "byte"))
  in
  bad "not json";
  bad "{\"a\":1,}";
  bad "{\"a\":1} trailing";
  bad "\"unterminated";
  bad "[1,2,";
  bad "\"\\ud800\"" (* unpaired surrogate *)

let test_json_depth_capped () =
  let deep = String.make 400 '[' ^ String.make 400 ']' in
  match Json.parse deep with
  | Ok _ -> Alcotest.fail "accepted 400-deep nesting"
  | Error _ -> ()

let test_json_surrogate_pair () =
  match Json.parse "\"\\ud83d\\ude00\"" with
  | Ok (Json.String s) -> check_string "utf8" "\xf0\x9f\x98\x80" s
  | Ok _ | Error _ -> Alcotest.fail "surrogate pair should decode"

let test_json_float_format () =
  check_string "integral float keeps .0" "[1.0,0.5]"
    (Json.to_string (Json.List [ Json.Float 1.0; Json.Float 0.5 ]))

(* Seeded random documents: nested lists and objects (duplicate keys
   included), strings mixing control bytes, quotes, backslashes and
   multi-byte UTF-8, extreme ints and, when [floats], awkward floats
   (negative zero, tiny, huge, non-finite). *)
let random_json rng ~floats =
  let int n = Random.State.int rng n in
  let pick a = a.(int (Array.length a)) in
  let pieces =
    [| "a"; "Z"; "0"; " "; "\""; "\\"; "/"; "\n"; "\r"; "\t"; "\b";
       "\012"; "\000"; "\031"; "\127"; "\u{e9}"; "\u{20ac}"; "\u{1f600}";
       "\u{2028}"; "\u{ffff}" |]
  in
  let string () = String.concat "" (List.init (int 8) (fun _ -> pick pieces)) in
  let integer () =
    match int 5 with
    | 0 -> pick [| 0; 1; -1; max_int; min_int; max_int - 1; min_int + 1 |]
    | 1 -> Random.State.full_int rng max_int
    | 2 -> -Random.State.full_int rng max_int
    | _ -> int 2000 - 1000
  in
  let float () =
    match int 4 with
    | 0 ->
      pick [| 0.0; -0.0; 1.0; 0.5; 1e300; -1e-300; 5e-324; Float.max_float;
              Float.nan; Float.infinity; Float.neg_infinity; 1e12; 123456.0 |]
    | 1 -> Random.State.float rng 1.0
    | 2 -> Float.of_int (integer ())
    | _ -> ldexp (Random.State.float rng 2.0 -. 1.0) (int 200 - 100)
  in
  let rec value depth =
    match int (if depth = 0 then 6 else 8) with
    | 0 -> Json.Null
    | 1 -> Json.Bool (Random.State.bool rng)
    | 2 -> Json.Int (integer ())
    | 3 -> if floats then Json.Float (float ()) else Json.Int (integer ())
    | 4 | 5 -> Json.String (string ())
    | 6 -> Json.List (List.init (int 5) (fun _ -> value (depth - 1)))
    | _ ->
      Json.Obj (List.init (int 5) (fun _ -> (string (), value (depth - 1))))
  in
  value (int 6)

(* print . parse . print = print on every value; and, without floats
   (whose text is rounded to 12 significant digits), parse . print is
   the identity. *)
let test_json_print_parse_property () =
  let rng = Random.State.make [| 2404 |] in
  for i = 1 to 3000 do
    let floats = i mod 2 = 0 in
    let v = random_json rng ~floats in
    let text = Json.to_string v in
    match Json.parse text with
    | Error e -> Alcotest.failf "printed document rejected (%s): %s" e text
    | Ok v' ->
      check_string "print . parse . print = print" text (Json.to_string v');
      if not floats then
        check_bool (Printf.sprintf "parse . print = id on %s" text) true (v = v')
  done

(* --- Canon ---------------------------------------------------------------- *)

let params_of_string s =
  match Json.parse s with Ok v -> v | Error e -> Alcotest.fail e

(* Member order, container aliases, spelled-out defaults and operation
   order/duplicates all canonicalize away: one key, one config. *)
let test_canon_orderings_same_key () =
  let a =
    params_of_string
      {|{"container":"rbuffer","target":"sram","width":8,"depth":512,"ops":["read","inc"]}|}
  in
  let b =
    params_of_string
      {|{"ops":["inc","read","inc"],"depth":512,"target":"sram","wait_states":1,"container":"read-buffer","bus":8,"width":8}|}
  in
  let ka = Canon.config_key (Canon.config_of_params a) in
  let kb = Canon.config_key (Canon.config_of_params b) in
  check_string "same canonical key" ka kb

let test_canon_distinct_keys () =
  let key s = Canon.config_key (Canon.config_of_params (params_of_string s)) in
  let a = key {|{"container":"queue","target":"fifo","width":8}|} in
  let b = key {|{"container":"queue","target":"fifo","width":16}|} in
  check_bool "width is part of the identity" true (a <> b)

let test_canon_invalid_params () =
  (match
     Canon.config_of_params
       (params_of_string {|{"container":"heap","target":"fifo"}|})
   with
  | _ -> Alcotest.fail "unknown container should be rejected"
  | exception Protocol.Error (Protocol.Invalid_params, _) -> ());
  match
    Canon.config_of_params (params_of_string {|{"container":"queue"}|})
  with
  | _ -> Alcotest.fail "missing target should be rejected"
  | exception Protocol.Error (Protocol.Invalid_params, _) -> ()

(* The key a params object canonicalizes to, or the wire code of the
   error the server would answer with.  Anything else escaping Canon
   would reach a client as an [internal] error, so it fails the test. *)
let canon_outcome params =
  match Canon.config_key (Canon.config_of_params params) with
  | key -> Ok key
  | exception Protocol.Error (code, _) -> Error (Protocol.code_string code)
  | exception Json.Type_error _ -> Error "invalid-params"
  | exception e ->
    Alcotest.failf "%s raised %s" (Json.to_string params) (Printexc.to_string e)

(* Seeded mutations of valid params.  A dropped required member, a
   retyped member or an out-of-range value must be an [invalid-params]
   error; reordered members, aliased names, shuffled or repeated
   operations, integral floats and spelled-out defaults must give the
   unmutated key. *)
let test_canon_fuzz () =
  let open Hwpat_meta in
  let rng = Random.State.make [| 2005; 21 |] in
  let int n = Random.State.int rng n in
  let pick l = List.nth l (int (List.length l)) in
  let spellings = function
    | Metamodel.Stack -> [ "stack"; "lifo-stack"; "Stack" ]
    | Metamodel.Queue -> [ "queue"; "fifo-queue"; "QUEUE" ]
    | Metamodel.Read_buffer -> [ "rbuffer"; "read-buffer" ]
    | Metamodel.Write_buffer -> [ "wbuffer"; "write-buffer" ]
    | Metamodel.Vector -> [ "vector"; "Vector" ]
    | Metamodel.Assoc_array -> [ "assoc"; "assoc-array" ]
  in
  let target_spellings = function
    | Metamodel.Fifo_core -> [ "fifo"; "FIFO" ]
    | Metamodel.Lifo_core -> [ "lifo" ]
    | Metamodel.Block_ram -> [ "bram" ]
    | Metamodel.Ext_sram -> [ "sram"; "Sram" ]
    | Metamodel.Line_buffer3 -> [ "linebuf"; "linebuf3" ]
  in
  let ops_json ops =
    Json.List (List.map (fun o -> Json.String (Metamodel.operation_name o)) ops)
  in
  let valid () =
    let kind = pick Metamodel.all_containers in
    let target = pick (Metamodel.legal_targets kind) in
    let ops =
      match List.filter (fun _ -> Random.State.bool rng) (Metamodel.operations kind) with
      | [] -> Metamodel.operations kind
      | ops -> ops
    in
    let prot =
      match pick (None :: List.map Option.some (Metamodel.legal_protections target)) with
      | None -> []
      | Some Metamodel.Parity -> [ ("parity", Json.Bool true) ]
      | Some Metamodel.Op_watchdog -> [ ("op_timeout", Json.Int (1 + int 32)) ]
    in
    [ ("container", Json.String (pick (spellings kind)));
      ("target", Json.String (pick (target_spellings target)));
      ("width", Json.Int (pick [ 8; 16 ]));
      ("depth", Json.Int (pick [ 1; 64; 512; 4096 ]));
      ("ops", ops_json ops) ]
    @ prot
    @ (if Random.State.bool rng then [ ("wait_states", Json.Int (int 4)) ] else [])
    @ if Random.State.bool rng then [ ("instance", Json.String "buf") ] else []
  in
  let replace members key v =
    List.map (fun (k, x) -> if k = key then (k, v) else (k, x)) members
  in
  let shuffle l =
    List.map snd
      (List.sort compare (List.map (fun x -> (Random.State.bits rng, x)) l))
  in
  let kind_of members =
    match List.assoc "container" members with
    | Json.String s -> Canon.container_of_string s
    | _ -> assert false
  in
  let target_of members =
    match List.assoc "target" members with
    | Json.String s -> Canon.target_of_string s
    | _ -> assert false
  in
  let mutate_invalid members =
    let key = fst (pick members) in
    match int 3 with
    | 0 -> List.remove_assoc (pick [ "container"; "target" ]) members
    | 1 ->
      let wrong =
        match List.assoc key members with
        | Json.String _ -> pick [ Json.Int 3; Json.List []; Json.Bool true ]
        | Json.Int _ -> pick [ Json.String "8"; Json.Float 8.5; Json.Obj [] ]
        | Json.Bool _ -> pick [ Json.Int 1; Json.String "true" ]
        | Json.List _ -> pick [ Json.String "read"; Json.List [ Json.Int 1 ] ]
        | _ -> Json.Bool false
      in
      replace members key wrong
    | _ -> (
      match int 10 with
      | 0 -> replace members "width" (Json.Int (pick [ 0; -8 ]))
      | 1 -> replace members "depth" (Json.Int (pick [ 0; -1 ]))
      | 2 -> ("bus", Json.Int (pick [ 0; -8; 3 ])) :: members
      | 3 -> ("addr_width", Json.Int (pick [ 0; -1 ])) :: members
      | 4 -> ("wait_states", Json.Int (-1)) :: List.remove_assoc "wait_states" members
      | 5 -> ("op_timeout", Json.Int (pick [ 0; -5 ])) :: List.remove_assoc "op_timeout" members
      | 6 -> replace members "container" (Json.String "heap")
      | 7 -> replace members "target" (Json.String "dram")
      | 8 -> replace members "ops" (Json.List [ Json.String "jump" ])
      | _ ->
        (* a target the container cannot be built over *)
        let kind = kind_of members in
        let illegal =
          List.filter
            (fun t -> not (List.mem t (Metamodel.legal_targets kind)))
            [ Metamodel.Fifo_core; Metamodel.Lifo_core; Metamodel.Block_ram;
              Metamodel.Ext_sram; Metamodel.Line_buffer3 ]
        in
        replace members "target" (Json.String (List.hd (target_spellings (pick illegal)))))
  in
  let mutate_alias members =
    match int 6 with
    | 0 -> shuffle members
    | 1 -> replace members "container" (Json.String (pick (spellings (kind_of members))))
    | 2 ->
      replace members "target" (Json.String (pick (target_spellings (target_of members))))
    | 3 -> (
      match List.assoc "ops" members with
      | Json.List ops -> replace members "ops" (Json.List (shuffle (ops @ ops)))
      | _ -> members)
    | 4 -> (
      match List.assoc "width" members with
      | Json.Int w -> replace members "width" (Json.Float (float_of_int w))
      | _ -> members)
    | _ ->
      let spelled =
        [ ("wait_states", Json.Int 1); ("instance", Json.String "gen");
          ("parity", Json.Bool false); ("op_timeout", Json.Null);
          ("bus", List.assoc "width" members) ]
      in
      let k, v = pick spelled in
      if List.mem_assoc k members then members else members @ [ (k, v) ]
  in
  for _ = 1 to 2000 do
    let base = valid () in
    let key =
      match canon_outcome (Json.Obj base) with
      | Ok key -> key
      | Error code ->
        Alcotest.failf "valid params %s rejected (%s)"
          (Json.to_string (Json.Obj base)) code
    in
    let bad = Json.Obj (mutate_invalid base) in
    (match canon_outcome bad with
    | Error "invalid-params" -> ()
    | Ok _ -> Alcotest.failf "accepted %s" (Json.to_string bad)
    | Error code -> Alcotest.failf "%s gave %s" (Json.to_string bad) code);
    let alias = Json.Obj (mutate_alias base) in
    match canon_outcome alias with
    | Ok k -> check_string (Json.to_string alias) key k
    | Error code -> Alcotest.failf "%s gave %s" (Json.to_string alias) code
  done

(* --- Cache ---------------------------------------------------------------- *)

let test_cache_hit_miss () =
  let c = Cache.create ~name:"t" ~capacity:4 () in
  let computed = ref 0 in
  let v1 = Cache.find_or_add c "k" (fun () -> incr computed; 42) in
  let v2 = Cache.find_or_add c "k" (fun () -> incr computed; 43) in
  check_int "computed once" 1 !computed;
  check_int "first" 42 v1;
  check_int "second served from cache" 42 v2;
  let cnt = Cache.counters c in
  check_int "hits" 1 cnt.Cache.hits;
  check_int "misses" 1 cnt.Cache.misses

let test_cache_lru_eviction () =
  let c = Cache.create ~name:"t" ~capacity:2 () in
  Cache.add c "a" 1;
  Cache.add c "b" 2;
  (* touch a so b becomes the least recently used *)
  check_bool "a present" true (Cache.find c "a" = Some 1);
  Cache.add c "c" 3;
  check_bool "b evicted" true (Cache.find c "b" = None);
  check_bool "a survives" true (Cache.find c "a" = Some 1);
  check_bool "c present" true (Cache.find c "c" = Some 3);
  check_int "one eviction" 1 (Cache.counters c).Cache.evictions;
  check_int "bounded" 2 (Cache.length c)

let test_cache_disabled () =
  let c = Cache.create ~name:"t" ~capacity:0 () in
  let computed = ref 0 in
  ignore (Cache.find_or_add c "k" (fun () -> incr computed; 1));
  ignore (Cache.find_or_add c "k" (fun () -> incr computed; 1));
  check_int "computes every time" 2 !computed;
  check_int "retains nothing" 0 (Cache.length c)

let test_cache_failed_compute_not_inserted () =
  let c = Cache.create ~name:"t" ~capacity:4 () in
  (try
     ignore (Cache.find_or_add c "k" (fun () -> failwith "boom"))
   with Failure _ -> ());
  check_int "nothing inserted" 0 (Cache.length c);
  check_int "still a miss afterwards" 42
    (Cache.find_or_add c "k" (fun () -> 42))

(* --- Parallel.Pool -------------------------------------------------------- *)

let test_pool_runs_everything () =
  let pool = Hwpat_core.Parallel.Pool.create ~jobs:4 () in
  let hits = Atomic.make 0 in
  for _ = 1 to 100 do
    check_bool "accepted" true
      (Hwpat_core.Parallel.Pool.submit pool (fun () -> Atomic.incr hits))
  done;
  Hwpat_core.Parallel.Pool.drain pool;
  check_int "all tasks ran" 100 (Atomic.get hits);
  Hwpat_core.Parallel.Pool.shutdown pool;
  check_bool "rejects after shutdown" false
    (Hwpat_core.Parallel.Pool.submit pool (fun () -> ()))

let test_pool_survives_raising_task () =
  let pool = Hwpat_core.Parallel.Pool.create ~jobs:2 () in
  let ok = Atomic.make 0 in
  ignore (Hwpat_core.Parallel.Pool.submit pool (fun () -> failwith "boom"));
  for _ = 1 to 10 do
    ignore (Hwpat_core.Parallel.Pool.submit pool (fun () -> Atomic.incr ok))
  done;
  Hwpat_core.Parallel.Pool.drain pool;
  check_int "later tasks unaffected" 10 (Atomic.get ok);
  check_int "escape recorded" 1 (Hwpat_core.Parallel.Pool.escaped pool);
  Hwpat_core.Parallel.Pool.shutdown pool

(* --- Supervise.run_one ----------------------------------------------------- *)

let test_run_one_deadline () =
  let policy =
    {
      Hwpat_core.Supervise.retries = 0;
      backoff_s = 0.0;
      shard_timeout_s = 0.05;
    }
  in
  match
    Hwpat_core.Supervise.run_one ~policy (fun ctx ->
        let until = Unix.gettimeofday () +. 5.0 in
        while Unix.gettimeofday () < until do
          Hwpat_core.Supervise.check ctx;
          Unix.sleepf 0.001
        done)
  with
  | Hwpat_core.Supervise.Done () -> Alcotest.fail "deadline should trip"
  | Hwpat_core.Supervise.Unfinished { attempts; _ } ->
    check_int "no retries configured" 1 attempts

(* --- Server sessions over socketpairs ------------------------------------- *)

let config ?(jobs = 1) ?(cache_size = 32) ?(max_inflight = 64)
    ?(queue_bound = 32) ?(max_request_bytes = 1 lsl 20) () =
  {
    Server.jobs;
    campaign_jobs = 1;
    cache_size;
    max_inflight;
    queue_bound;
    max_request_bytes;
    trace = Hwpat_obs.Trace.null;
    metrics = Hwpat_obs.Metrics.null;
  }

type client = {
  fd : Unix.file_descr;
  buf : Buffer.t;
  mutable pending : string list;
}

let rec write_all fd s off len =
  if len > 0 then begin
    let n = Unix.write_substring fd s off len in
    write_all fd s (off + n) (len - n)
  end

let send c line =
  let line = line ^ "\n" in
  write_all c.fd line 0 (String.length line)

let rec recv c =
  match c.pending with
  | l :: rest ->
    c.pending <- rest;
    l
  | [] ->
    let chunk = Bytes.create 4096 in
    let n = Unix.read c.fd chunk 0 (Bytes.length chunk) in
    if n = 0 then Alcotest.fail "server closed the stream early";
    Buffer.add_subbytes c.buf chunk 0 n;
    let s = Buffer.contents c.buf in
    (match String.rindex_opt s '\n' with
    | None -> ()
    | Some i ->
      Buffer.clear c.buf;
      Buffer.add_string c.buf (String.sub s (i + 1) (String.length s - i - 1));
      c.pending <- String.split_on_char '\n' (String.sub s 0 i));
    recv c

let rpc c line =
  send c line;
  recv c

let with_server ?(cfg = config ()) f =
  let server = Server.create cfg in
  Fun.protect
    ~finally:(fun () ->
      Server.stop server;
      Server.shutdown server)
    (fun () -> f server)

let with_conn server f =
  let client_fd, server_fd =
    Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0
  in
  let d =
    Domain.spawn (fun () -> Server.serve_connection server server_fd server_fd)
  in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close client_fd with Unix.Unix_error _ -> ());
      Domain.join d;
      try Unix.close server_fd with Unix.Unix_error _ -> ())
    (fun () -> f { fd = client_fd; buf = Buffer.create 1024; pending = [] })

let error_code line =
  match Json.parse line with
  | Ok doc -> (
    match Json.member "error" doc with
    | Some err -> Json.get_string err "code" ~default:""
    | None -> "")
  | Error e -> Alcotest.fail e

let is_ok line = error_code line = ""

(* A canonically repeated request is answered byte-identically whether
   it comes from the results cache or is recomputed (cache=false). *)
let test_cached_vs_fresh_identical () =
  with_server @@ fun server ->
  with_conn server @@ fun c ->
  let p1 =
    {|{"id":"e","method":"elaborate","params":{"container":"queue","target":"bram","width":8,"depth":64}}|}
  in
  let p2 =
    {|{"id":"e","method":"elaborate","params":{"depth":64,"width":8,"target":"bram","container":"queue"}}|}
  in
  let p3 =
    {|{"id":"e","method":"elaborate","params":{"container":"queue","target":"bram","width":8,"depth":64,"cache":false}}|}
  in
  let r1 = rpc c p1 in
  let r2 = rpc c p2 in
  let r3 = rpc c p3 in
  check_bool "first answered" true (is_ok r1);
  check_string "reordered params: cache hit, same bytes" r1 r2;
  check_string "fresh recompute: same bytes" r1 r3;
  let stats = rpc c {|{"id":"s","method":"stats"}|} in
  match Json.parse stats with
  | Error e -> Alcotest.fail e
  | Ok doc ->
    let results =
      Json.member "result" doc
      |> Option.get |> Json.member "caches" |> Option.get
      |> Json.member "results" |> Option.get
    in
    check_int "one results-cache hit visible in stats" 1
      (Json.get_int results "hits" ~default:(-1))

let test_simulate_plan_cache () =
  with_server @@ fun server ->
  with_conn server @@ fun c ->
  let req =
    {|{"id":1,"method":"simulate","params":{"design":"blur","width":8,"height":8}}|}
  in
  let r1 = rpc c req in
  let r2 = rpc c req in
  check_bool "simulate succeeds" true (is_ok r1);
  check_string "warm request byte-identical" r1 r2;
  let fresh =
    rpc c
      {|{"id":1,"method":"simulate","params":{"design":"blur","width":8,"height":8,"cache":false}}|}
  in
  check_string "recomputed on a cached plan: same bytes" r1 fresh

(* Tiny LRU: evicting circuits must never change what a later request
   for the evicted key answers. *)
let test_eviction_correctness () =
  with_server ~cfg:(config ~cache_size:1 ()) @@ fun server ->
  with_conn server @@ fun c ->
  let e w =
    Printf.sprintf
      {|{"id":"e%d","method":"elaborate","params":{"container":"queue","target":"bram","width":%d,"depth":64}}|}
      w w
  in
  let first8 = rpc c (e 8) in
  let first16 = rpc c (e 16) in
  let again8 = rpc c (e 8) in
  let again16 = rpc c (e 16) in
  check_bool "distinct configs differ" true (first8 <> first16);
  check_string "recomputed after eviction: same bytes" first8 again8;
  check_string "and for the other key" first16 again16;
  let stats = rpc c {|{"id":"s","method":"stats"}|} in
  match Json.parse stats with
  | Error e -> Alcotest.fail e
  | Ok doc ->
    let circuits =
      Json.member "result" doc
      |> Option.get |> Json.member "caches" |> Option.get
      |> Json.member "circuits" |> Option.get
    in
    check_bool "evictions recorded" true
      (Json.get_int circuits "evictions" ~default:0 >= 1);
    check_int "capacity respected" 1
      (Json.get_int circuits "entries" ~default:(-1))

(* N concurrent clients hammering a shared cache get exactly the
   responses a serial session gets. *)
let test_parallel_clients_equal_serial () =
  let script =
    [
      {|{"id":1,"method":"elaborate","params":{"container":"queue","target":"bram","width":8,"depth":64}}|};
      {|{"id":2,"method":"simulate","params":{"design":"blur","width":8,"height":8}}|};
      {|{"id":3,"method":"elaborate","params":{"container":"stack","target":"lifo","width":8,"depth":64}}|};
      {|{"id":4,"method":"simulate","params":{"design":"saa2vga-fifo","width":8,"height":8}}|};
      {|{"id":5,"method":"ping"}|};
    ]
  in
  let run_script c = List.map (rpc c) script in
  let serial =
    with_server @@ fun server -> with_conn server @@ run_script
  in
  with_server ~cfg:(config ~jobs:4 ()) @@ fun server ->
  let domains =
    List.init 4 (fun _ ->
        let client_fd, server_fd =
          Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0
        in
        let sd =
          Domain.spawn (fun () ->
              Server.serve_connection server server_fd server_fd)
        in
        let cd =
          Domain.spawn (fun () ->
              let c = { fd = client_fd; buf = Buffer.create 1024; pending = [] } in
              let rs = run_script c in
              Unix.close client_fd;
              rs)
        in
        (sd, cd, server_fd))
  in
  List.iter
    (fun (sd, cd, server_fd) ->
      let responses = Domain.join cd in
      Domain.join sd;
      (try Unix.close server_fd with Unix.Unix_error _ -> ());
      List.iter2
        (fun expected got -> check_string "matches serial session" expected got)
        serial responses)
    domains

(* A deadline-cancelled request answers [deadline] and leaves the pool
   and caches serving later requests normally. *)
let test_deadline_leaves_server_healthy () =
  with_server @@ fun server ->
  with_conn server @@ fun c ->
  let r =
    rpc c {|{"id":1,"method":"sleep","params":{"seconds":30.0,"deadline_s":0.1}}|}
  in
  check_string "deadline error" "deadline" (error_code r);
  let r2 = rpc c {|{"id":2,"method":"ping"}|} in
  check_bool "pool healthy afterwards" true (is_ok r2);
  let r3 =
    rpc c
      {|{"id":3,"method":"simulate","params":{"design":"blur","width":8,"height":8}}|}
  in
  check_bool "pipeline healthy afterwards" true (is_ok r3)

let test_oversized_line () =
  with_server ~cfg:(config ~max_request_bytes:300 ()) @@ fun server ->
  with_conn server @@ fun c ->
  let long =
    Printf.sprintf {|{"id":1,"method":"ping","params":{"pad":"%s"}}|}
      (String.make 400 'x')
  in
  let r = rpc c long in
  check_string "oversized rejected" "oversized" (error_code r);
  let r2 = rpc c {|{"id":2,"method":"ping"}|} in
  check_bool "next request unaffected" true (is_ok r2)

let test_overload_rejection () =
  with_server ~cfg:(config ~jobs:1 ~max_inflight:2 ~queue_bound:2 ())
  @@ fun server ->
  with_conn server @@ fun c ->
  send c {|{"id":1,"method":"sleep","params":{"seconds":0.3}}|};
  send c {|{"id":2,"method":"sleep","params":{"seconds":0.3}}|};
  send c {|{"id":3,"method":"ping"}|};
  let r1 = recv c in
  let r2 = recv c in
  let r3 = recv c in
  check_bool "first admitted" true (is_ok r1);
  check_bool "second admitted" true (is_ok r2);
  check_string "third rejected cleanly" "overloaded" (error_code r3);
  let r4 = rpc c {|{"id":4,"method":"ping"}|} in
  check_bool "accepts again once drained" true (is_ok r4)

(* Stop ends intake: once the server is stopping, a connection only
   processes what it has already read, so the post-shutdown request
   must ride the same write as the shutdown itself to be answered (a
   later write would meet a drained, closed stream instead). *)
let test_shutdown_method () =
  with_server @@ fun server ->
  with_conn server @@ fun c ->
  let lines =
    {|{"id":1,"method":"elaborate","params":{"container":"queue","target":"fifo","width":8,"depth":64}}|}
    ^ "\n" ^ {|{"id":2,"method":"shutdown"}|} ^ "\n"
    ^ {|{"id":3,"method":"ping"}|} ^ "\n"
  in
  write_all c.fd lines 0 (String.length lines);
  let r1 = recv c in
  let r2 = recv c in
  let r3 = recv c in
  check_bool "request before shutdown served" true (is_ok r1);
  check_bool "shutdown acknowledged" true (is_ok r2);
  check_string "after shutdown: rejected" "shutting-down" (error_code r3);
  check_bool "server stopping" true (Server.stopping server)

let test_batch_request () =
  with_server @@ fun server ->
  with_conn server @@ fun c ->
  let r =
    rpc c
      {|{"id":1,"method":"batch","params":{"requests":[{"method":"elaborate","params":{"container":"queue","target":"bram","width":8,"depth":64}},{"method":"elaborate","params":{"depth":64,"width":8,"target":"bram","container":"queue"}},{"method":"nope"}]}}|}
  in
  match Json.parse r with
  | Error e -> Alcotest.fail e
  | Ok doc ->
    let result = Json.member "result" doc |> Option.get in
    check_int "all items answered" 3 (Json.get_int result "count" ~default:0);
    (match Json.get_list_opt result "results" with
    | Some [ a; b; bad ] ->
      check_string "canonically equal items answered identically"
        (Json.to_string a) (Json.to_string b);
      check_bool "bad item reports its error in place" true
        (Json.member "error" bad <> None)
    | _ -> Alcotest.fail "expected three batch items")

let test_faultsim_request_cached () =
  with_server @@ fun server ->
  with_conn server @@ fun c ->
  let req =
    {|{"id":1,"method":"faultsim","params":{"design":"saa2vga_sram_pattern","faults":3,"frame_size":6}}|}
  in
  let r1 = rpc c req in
  check_bool "campaign ran" true (is_ok r1);
  let r2 = rpc c req in
  check_string "campaign summary served from cache, same bytes" r1 r2

(* Seeded mutations of well-formed request lines (byte replacements
   and truncations).  Every line gets exactly one reply — a result or
   a protocol error code other than [internal] — and the probe ping
   sent right behind it gets the next one, so a lost or doubled reply
   fails (a receive timeout rather than a hang). *)
let test_mutated_requests () =
  with_server @@ fun server ->
  with_conn server @@ fun c ->
  Unix.setsockopt_float c.fd Unix.SO_RCVTIMEO 30.0;
  let seeds =
    [|
      {|{"id":1,"method":"ping"}|};
      {|{"id":2,"method":"elaborate","params":{"container":"queue","target":"bram","width":8,"depth":64}}|};
      {|{"id":3,"method":"simulate","params":{"design":"blur","width":6,"height":6}}|};
      {|{"id":4,"method":"batch","params":{"requests":[{"method":"ping"},{"method":"codegen","params":{"container":"stack"}}]}}|};
      {|{"id":[5,{"k":"\u00e9\"\\"}],"method":"ping","params":{}}|};
    |]
  in
  let codes =
    List.map Protocol.code_string
      Protocol.[ Parse_error; Invalid_request; Unknown_method; Invalid_params;
                 Overloaded; Deadline; Oversized; Shutting_down ]
  in
  let rng = Random.State.make [| 2005 |] in
  let mutate s =
    let i = Random.State.int rng (String.length s) in
    let byte _ = Char.chr (Random.State.int rng 256) in
    if Random.State.bool rng then String.sub s 0 (max 1 i)
    else String.mapi (fun j ch -> if j = i then byte () else ch) s
  in
  for i = 1 to 200 do
    let line = ref seeds.(Random.State.int rng (Array.length seeds)) in
    for _ = 0 to Random.State.int rng 2 do line := mutate !line done;
    (* One line per request: a newline would frame a second one. *)
    let line = String.map (fun ch -> if ch = '\n' then ' ' else ch) !line in
    let probe = Json.String (Printf.sprintf "probe-%d" i) in
    send c line;
    send c
      (Json.to_string (Json.Obj [ ("id", probe); ("method", Json.String "ping") ]));
    let reply = recv c in
    let next = recv c in
    let what = Printf.sprintf "reply to %S" line in
    (match Json.parse reply with
    | Ok doc
      when Json.member "result" doc <> None || List.mem (error_code reply) codes
      -> ()
    | _ -> Alcotest.failf "%s: neither a result nor a protocol error" what);
    match Json.parse next with
    | Ok doc when Json.member "id" doc = Some probe -> ()
    | _ -> Alcotest.failf "%s: the probe was not answered next" what
  done;
  check_bool "ping still answers" true (is_ok (rpc c {|{"id":0,"method":"ping"}|}))

let test_unix_socket_listener () =
  let path =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "hwpat_serve_test_%d.sock" (Unix.getpid ()))
  in
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  let server = Server.create (config ()) in
  let listener = Domain.spawn (fun () -> Server.run_socket server ~path) in
  let deadline = Unix.gettimeofday () +. 5.0 in
  while (not (Sys.file_exists path)) && Unix.gettimeofday () < deadline do
    Unix.sleepf 0.01
  done;
  check_bool "socket appears" true (Sys.file_exists path);
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  let c = { fd; buf = Buffer.create 256; pending = [] } in
  let r = rpc c {|{"id":1,"method":"ping"}|} in
  check_bool "ping over the socket" true (is_ok r);
  let r2 = rpc c {|{"id":2,"method":"shutdown"}|} in
  check_bool "shutdown over the socket" true (is_ok r2);
  Unix.close fd;
  Domain.join listener;
  check_bool "socket file removed on exit" false (Sys.file_exists path)

(* A client that disconnects before reading its responses must not
   kill the daemon (SIGPIPE is ignored) or wedge it (the write error
   must release the connection mutex and drop the parked responses):
   the connection drains, and a later client is served normally. *)
let test_dead_client_harmless () =
  with_server @@ fun server ->
  let client_fd, server_fd =
    Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0
  in
  let d =
    Domain.spawn (fun () -> Server.serve_connection server server_fd server_fd)
  in
  let req =
    {|{"id":"x","method":"elaborate","params":{"container":"queue","target":"bram","width":8,"depth":64}}|}
    ^ "\n"
  in
  write_all client_fd req 0 (String.length req);
  write_all client_fd req 0 (String.length req);
  (* gone before reading either response *)
  Unix.close client_fd;
  Domain.join d;
  (try Unix.close server_fd with Unix.Unix_error _ -> ());
  with_conn server @@ fun c ->
  check_bool "server still answers a fresh connection" true
    (is_ok
       (rpc c
          {|{"id":"y","method":"elaborate","params":{"container":"queue","target":"bram","width":8,"depth":64}}|}))

(* run_socket must not displace whatever already lives at the path
   unless it is a stale socket. *)
let test_socket_path_not_clobbered () =
  let path = Filename.temp_file "hwpat_serve_test" ".txt" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      with_server @@ fun server ->
      (match Server.run_socket server ~path with
      | () -> Alcotest.fail "expected Failure on a non-socket path"
      | exception Failure _ -> ());
      check_bool "existing file left in place" true (Sys.file_exists path))

let () =
  Alcotest.run "serve"
    [
      ( "json",
        [
          Alcotest.test_case "parse/print round trip" `Quick test_json_roundtrip;
          Alcotest.test_case "malformed inputs rejected" `Quick test_json_rejects;
          Alcotest.test_case "nesting depth capped" `Quick test_json_depth_capped;
          Alcotest.test_case "surrogate pairs decode" `Quick
            test_json_surrogate_pair;
          Alcotest.test_case "float format fixed" `Quick test_json_float_format;
          Alcotest.test_case "print . parse property" `Quick
            test_json_print_parse_property;
        ] );
      ( "canon",
        [
          Alcotest.test_case "orderings and aliases share a key" `Quick
            test_canon_orderings_same_key;
          Alcotest.test_case "different configs differ" `Quick
            test_canon_distinct_keys;
          Alcotest.test_case "invalid params rejected" `Quick
            test_canon_invalid_params;
          Alcotest.test_case "seeded mutations" `Quick test_canon_fuzz;
        ] );
      ( "cache",
        [
          Alcotest.test_case "hit/miss accounting" `Quick test_cache_hit_miss;
          Alcotest.test_case "LRU evicts the right entry" `Quick
            test_cache_lru_eviction;
          Alcotest.test_case "capacity 0 disables" `Quick test_cache_disabled;
          Alcotest.test_case "failed compute not inserted" `Quick
            test_cache_failed_compute_not_inserted;
        ] );
      ( "pool",
        [
          Alcotest.test_case "runs everything, rejects after shutdown" `Quick
            test_pool_runs_everything;
          Alcotest.test_case "survives raising tasks" `Quick
            test_pool_survives_raising_task;
          Alcotest.test_case "run_one deadline" `Quick test_run_one_deadline;
        ] );
      ( "server",
        [
          Alcotest.test_case "cached vs fresh byte-identical" `Quick
            test_cached_vs_fresh_identical;
          Alcotest.test_case "warm simulate byte-identical" `Quick
            test_simulate_plan_cache;
          Alcotest.test_case "tiny LRU stays correct" `Quick
            test_eviction_correctness;
          Alcotest.test_case "4 clients equal serial" `Quick
            test_parallel_clients_equal_serial;
          Alcotest.test_case "deadline leaves server healthy" `Quick
            test_deadline_leaves_server_healthy;
          Alcotest.test_case "oversized line rejected" `Quick
            test_oversized_line;
          Alcotest.test_case "overload rejected cleanly" `Quick
            test_overload_rejection;
          Alcotest.test_case "shutdown method drains" `Quick
            test_shutdown_method;
          Alcotest.test_case "batch answers every item" `Quick
            test_batch_request;
          Alcotest.test_case "faultsim campaign cached" `Quick
            test_faultsim_request_cached;
          Alcotest.test_case "mutated request lines answered once" `Quick
            test_mutated_requests;
          Alcotest.test_case "unix socket listener" `Quick
            test_unix_socket_listener;
          Alcotest.test_case "dead client harmless" `Quick
            test_dead_client_harmless;
          Alcotest.test_case "non-socket path not clobbered" `Quick
            test_socket_path_not_clobbered;
        ] );
    ]
