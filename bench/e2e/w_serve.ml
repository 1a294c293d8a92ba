(* serve: a `hwpat serve --socket -j 2` daemon with its default cache
   and admission settings, driven by one single-threaded generator over
   two connections.  The only workload whose latency includes queueing
   and caching.

   Phase 1 is an open loop: seeded Poisson arrivals of the request mix,
   each request timed from when it was due, so a stall also delays the
   requests queued behind it.  Phase 2 sends a fixed batch of requests
   with the results cache bypassed, one at a time, so every reply is
   computed; every daemon started for set-up runs it, before the last
   one runs phase 1.  A traced run adds phase 3, closed loops of cold
   fault campaigns, first one at a time and then two.

   A pipelined closed loop on cache hits would isolate the JSON /
   protocol / server path, but at about 7 us a reply it times thread
   wake-ups on a shared two-CPU host: its median moved by a fifth to a
   quarter from run to run.  So it only feeds a note
   (warm_replies_per_s).

   Campaigns are not part of the open-loop mix: mixed in at 5% they
   set the whole tail, and one seed's 99th percentile moved between 165
   and 297 ms from run to run, because it depended on how many
   campaigns happened to overlap.  With two at a time every campaign
   overlaps another, but the median campaign latency still moved by a
   third between seeds, so the cost of running two at once is a
   per-layer ratio. *)

module Json = Hwpat_serve.Json

(* --- the request mix -------------------------------------------------------- *)

type key = { meth : string; params : Json.t; name : string }

let key meth params =
  let params = Json.Obj params in
  { meth; params; name = meth ^ Json.to_string params }

let str s = Json.String s
let int i = Json.Int i

let design_styles =
  [ ("saa2vga-fifo", "pattern"); ("saa2vga-fifo", "custom");
    ("saa2vga-sram", "pattern"); ("saa2vga-sram", "custom");
    ("blur", "pattern"); ("blur", "custom"); ("sobel", "pattern") ]

let simulate design style pattern size =
  key "simulate"
    [ ("design", str design); ("style", str style); ("pattern", str pattern);
      ("width", int size); ("height", int size) ]

let config container target width depth =
  [ ("container", str container); ("target", str target); ("width", int width);
    ("depth", int depth) ]

let elaborate c = List.map (fun p -> key "elaborate" (c @ [ ("pruned", Json.Bool p) ])) [ false; true ]
let codegen c = List.map (fun u -> key "codegen" (c @ [ ("unit", str u) ])) [ "container"; "iterator" ]

let emit design style lang optimize =
  key "emit"
    [ ("design", str design); ("style", str style); ("lang", str lang);
      ("optimize", Json.Bool optimize) ]

(* 84 simulate keys: every design and style, four patterns, three sizes. *)
let simulate_keys =
  List.concat_map
    (fun (d, s) ->
      List.concat_map
        (fun p -> List.map (simulate d s p) [ 8; 12; 16 ])
        [ "gradient"; "checker"; "random"; "bars" ])
    design_styles

(* 48 container configs: queues and stacks over each legal target,
   vectors over RAM, widths 8/16, depths 64/512/4096. *)
let configs =
  List.concat_map
    (fun (container, targets) ->
      List.concat_map
        (fun target ->
          List.concat_map
            (fun width -> List.map (config container target width) [ 64; 512; 4096 ])
            [ 8; 16 ])
        targets)
    [ ("queue", [ "fifo"; "bram"; "sram" ]); ("stack", [ "lifo"; "bram"; "sram" ]);
      ("vector", [ "bram"; "sram" ]) ]

(* 32 emit keys: VHDL and Verilog, raw and optimised, of every design
   and style, plus DOT of the pattern designs. *)
let emit_keys =
  List.concat_map
    (fun (d, s) ->
      List.concat_map (fun lang -> [ emit d s lang false; emit d s lang true ]) [ "vhdl"; "verilog" ])
    design_styles
  @ List.filter_map
      (fun (d, s) -> if s = "pattern" then Some (emit d s "dot" false) else None)
      design_styles

(* A 64-fault campaign on an 8x8 frame, 64 lanes. *)
let campaign seed =
  key "faultsim"
    [ ("design", str "saa2vga_sram_pattern"); ("seed", int seed); ("faults", int 64);
      ("frame_size", int 8); ("lanes", int 64) ]

(* Phase 2 replays a fixed set of keys, so its work does not depend on
   the seed: every paper design at two frame sizes, and a queue and a
   stack through elaborate and codegen.  The warm loop sends them as
   they are, for the results cache to answer; the cold batch adds
   "cache": false, so the daemon recomputes each reply through its
   plan and circuit caches (15 ms a pass at best, most of it
   simulating the 16x16 frames). *)
let warm_keys =
  List.concat_map
    (fun d -> [ simulate d "pattern" "gradient" 8; simulate d "pattern" "gradient" 16 ])
    [ "saa2vga-fifo"; "saa2vga-sram"; "blur"; "sobel" ]
  @ List.concat_map
      (fun c -> elaborate c @ codegen c)
      [ config "queue" "fifo" 8 64; config "stack" "lifo" 8 64 ]

let cold_keys =
  List.map
    (fun k ->
      match k.params with
      | Json.Obj ps -> key k.meth (ps @ [ ("cache", Json.Bool false) ])
      | _ -> k)
    warm_keys

(* Zipf(1.1) over a method's keys; the seed shuffles which key has which
   rank. *)
type pool = { keys : key array; cdf : float array }

let zipf_pool rng keys =
  let keys = Array.of_list keys in
  for i = Array.length keys - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = keys.(i) in
    keys.(i) <- keys.(j);
    keys.(j) <- t
  done;
  let w = Array.mapi (fun i _ -> 1.0 /. (float_of_int (i + 1) ** 1.1)) keys in
  let total = Array.fold_left ( +. ) 0.0 w in
  let acc = ref 0.0 in
  { keys; cdf = Array.map (fun x -> acc := !acc +. (x /. total); !acc) w }

(* Cumulative method shares and their key pools: simulate 45, elaborate
   20, codegen 20 and emit 10 parts. *)
let mix ~seed =
  let rng = Random.State.make [| seed; 10 |] in
  let acc = ref 0.0 in
  List.map
    (fun (share, keys) ->
      acc := !acc +. (share /. 0.95);
      (!acc, zipf_pool rng keys))
    [ (0.45, simulate_keys); (0.20, List.concat_map elaborate configs);
      (0.20, List.concat_map codegen configs); (0.10, emit_keys) ]

let draw mix rng =
  let u = Random.State.float rng 1.0 in
  let p = match List.find_opt (fun (c, _) -> u <= c) mix with
    | Some (_, p) -> p
    | None -> snd (List.hd (List.rev mix))
  in
  let u = Random.State.float rng 1.0 in
  let rec find i = if i >= Array.length p.cdf - 1 || u <= p.cdf.(i) then i else find (i + 1) in
  p.keys.(find 0)

(* --- generated inputs ------------------------------------------------------ *)

type input = {
  warmup : key list;
  arrivals : (float * key) array;  (* phase 1: offset from start, request *)
  rate : float;
  phase1_s : float;
  phase2_s : float;  (* per daemon; the warm loop runs as long *)
  phase3_s : float;  (* traced runs only *)
  campaign_seed : int;  (* phase-3 campaigns use seeds from here up *)
  reps : int;  (* set-up repetitions *)
}

let prepare (o : Workload.opts) =
  let rate = if o.smoke then 20.0 else 150.0 in
  let phase1_s =
    if o.smoke then 1.0 else if o.traced then o.seconds /. 2.0 else o.seconds
  in
  let mix = mix ~seed:o.seed in
  let rng_w = Random.State.make [| o.seed; 11 |] in
  let rng_a = Random.State.make [| o.seed; 12 |] in
  let arrivals =
    let rec go t acc =
      let t = t -. (log (1.0 -. Random.State.float rng_a 1.0) /. rate) in
      if t >= phase1_s then Array.of_list (List.rev acc)
      else go t ((t, draw mix rng_a) :: acc)
    in
    go 0.0 []
  in
  {
    warmup = List.init (if o.smoke then 20 else 300) (fun _ -> draw mix rng_w);
    arrivals;
    rate;
    phase1_s;
    phase2_s = (if o.smoke then 0.2 else 0.8);
    phase3_s = (if o.smoke then 0.3 else 1.5);
    campaign_seed = 1_000_000 + (1000 * o.seed);
    reps = (if o.smoke then 1 else 9);
  }

let describe inp =
  String.concat "\n"
    (Printf.sprintf "serve rate=%g phase1=%g phase2=%g phase3=%g campaigns=%d+" inp.rate
       inp.phase1_s inp.phase2_s inp.phase3_s inp.campaign_seed
     :: List.map (fun k -> k.name) inp.warmup
     @ Array.to_list (Array.map (fun (t, k) -> Printf.sprintf "%.9f %s" t k.name) inp.arrivals)
     @ List.map (fun k -> k.name) (warm_keys @ cold_keys))

(* --- the daemon ------------------------------------------------------------- *)

let hwpat_exe () =
  let p =
    Filename.concat (Filename.dirname Sys.executable_name)
      (Filename.concat Filename.parent_dir_name
         (Filename.concat Filename.parent_dir_name "bin/hwpat.exe"))
  in
  if Sys.file_exists p then p
  else failwith (p ^ " not found: build it with `dune build bin/hwpat.exe`")

let live = ref []

let kill_all () =
  List.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
    !live;
  live := []

let () = at_exit kill_all

type conn = { fd : Unix.file_descr; buf : Buffer.t; pending : (int * float) Queue.t }

type daemon = { pid : int; conns : conn array }

let rec connect path deadline =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX path) with
  | () -> fd
  | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _)
    when Unix.gettimeofday () < deadline ->
    Unix.close fd;
    Unix.sleepf 0.002;
    connect path deadline

let spawn ~(o : Workload.opts) ~n ?obs () =
  let socket = Filename.concat o.out_dir (Printf.sprintf "serve-%d-%d.sock" (Unix.getpid ()) n) in
  let hwpat = hwpat_exe () in
  let obs_args =
    match obs with
    | None -> []
    | Some (trace, metrics) -> [ "--trace"; trace; "--metrics"; metrics ]
  in
  let args =
    Array.of_list
      ([ hwpat; "serve"; "--socket"; socket; "-j"; string_of_int Machine.jobs ] @ obs_args)
  in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let log =
    Unix.openfile (Filename.concat o.out_dir "serve-daemon.log")
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644
  in
  let pid = Unix.create_process hwpat args null null log in
  Unix.close null;
  Unix.close log;
  live := pid :: !live;
  let deadline = Unix.gettimeofday () +. 60.0 in
  let conn () = { fd = connect socket deadline; buf = Buffer.create 4096; pending = Queue.create () } in
  { pid; conns = Array.init 2 (fun _ -> conn ()) }

let rec write_all fd s off =
  if off < String.length s then
    write_all fd s (off + Unix.write_substring fd s off (String.length s - off))

let send c ~id (k : key) =
  write_all c.fd
    (Json.to_string (Json.Obj [ ("id", int id); ("method", str k.meth); ("params", k.params) ]) ^ "\n")
    0

let chunk = Bytes.create 65536

(* Wait up to [timeout] for replies; returns (connection, line, time
   read) for every complete line. *)
let poll d timeout =
  let fds = Array.to_list (Array.map (fun c -> c.fd) d.conns) in
  match Unix.select fds [] [] (Float.max 0.0 timeout) with
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> []
  | ready, _, _ ->
    List.concat_map
      (fun fd ->
        let ci = if fd = d.conns.(0).fd then 0 else 1 in
        let c = d.conns.(ci) in
        let n = Unix.read fd chunk 0 (Bytes.length chunk) in
        if n = 0 then failwith "serve: the daemon closed a connection";
        let t = Unix.gettimeofday () in
        Buffer.add_subbytes c.buf chunk 0 n;
        let s = Buffer.contents c.buf in
        match String.rindex_opt s '\n' with
        | None -> []
        | Some last ->
          Buffer.clear c.buf;
          Buffer.add_string c.buf (String.sub s (last + 1) (String.length s - last - 1));
          List.map (fun l -> (ci, l, t)) (String.split_on_char '\n' (String.sub s 0 last)))
      ready

(* One request, one reply, nothing else in flight. *)
let call d meth =
  send d.conns.(0) ~id:(-1) (key meth []);
  let deadline = Unix.gettimeofday () +. 60.0 in
  let rec wait () =
    match poll d (deadline -. Unix.gettimeofday ()) with
    | [] when Unix.gettimeofday () < deadline -> wait ()
    | [] -> failwith ("serve: no reply to " ^ meth)
    | (_, line, _) :: _ -> (
      match Json.parse line with
      | Ok doc -> Option.value ~default:Json.Null (Json.member "result" doc)
      | Error e -> failwith ("serve: bad reply: " ^ e))
  in
  wait ()

(* The reply to shutdown is not awaited: the daemon closes both
   connections as it stops, and reading them could meet the second
   one's end of file before the first one's reply. *)
let stop d =
  send d.conns.(0) ~id:(-1) (key "shutdown" []);
  Array.iter (fun c -> Unix.close c.fd) d.conns;
  let deadline = Unix.gettimeofday () +. 30.0 in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] d.pid with
    | 0, _ when Unix.gettimeofday () < deadline -> Unix.sleepf 0.01; wait ()
    | 0, _ -> Unix.kill d.pid Sys.sigkill; ignore (Unix.waitpid [] d.pid)
    | _ -> ()
  in
  wait ();
  live := List.filter (( <> ) d.pid) !live

(* --- replies ---------------------------------------------------------------- *)

type tally = {
  digests : (string, string) Hashtbl.t;  (* request -> digest of its first result *)
  mutable attempted : int;
  mutable wrong : int;  (* results that fail their method's check or changed bytes *)
  mutable errors : int;  (* error replies (failed, refused, deadline) and lost ones *)
  mutable renamed : int;  (* emit replies whose text changed between computations *)
}

let tally () =
  { digests = Hashtbl.create 512; attempted = 0; wrong = 0; errors = 0; renamed = 0 }

(* The bytes of a reply after its id: {"id":N,"result":...} shares
   them with every other reply to the same request. *)
let body line =
  match String.index_opt line ',' with
  | Some i -> String.sub line (i + 1) (String.length line - i - 1)
  | None -> line

(* Checks a reply; true when it is a success.  A replayed result must be
   byte-identical to the first one, and each distinct result is checked
   once against its method's correctness condition.  Emitted netlists
   name signals by their elaboration uid, so a recomputed emit differs
   in names only: counted, not failed. *)
let check t (k : key) line =
  t.attempted <- t.attempted + 1;
  let b = body line in
  if not (String.starts_with ~prefix:"\"result\":" b) then begin
    t.errors <- t.errors + 1;
    false
  end
  else begin
    let dg = Digest.string b in
    let fresh =
      match Hashtbl.find_opt t.digests k.name with
      | Some d when d = dg -> false
      | Some _ when k.meth = "emit" -> t.renamed <- t.renamed + 1; true
      | Some _ -> t.wrong <- t.wrong + 1; true
      | None -> Hashtbl.add t.digests k.name dg; true
    in
    (if fresh then
       match Json.parse line with
       | Error _ -> t.wrong <- t.wrong + 1
       | Ok doc ->
         let r = Option.value ~default:Json.Null (Json.member "result" doc) in
         let ok =
           match k.meth with
           | "simulate" -> Json.member "matches_reference" r = Some (Json.Bool true)
           | "elaborate" -> Json.get_int r "nodes" ~default:0 > 0
           | "faultsim" ->
             Json.member "summary" r <> None && Json.get_int r "unfinished" ~default:1 = 0
           | _ -> Json.get_string r "text" ~default:"" <> ""
         in
         if not ok then t.wrong <- t.wrong + 1);
    true
  end

(* --- load phases ------------------------------------------------------------ *)

(* Closed loop over a finite list, [depth] requests in flight per
   connection. *)
let run_list d t keys ~depth =
  let keys = Array.of_list keys in
  let next = ref 0 and out = ref 0 in
  let send_next ci =
    if !next < Array.length keys then begin
      let i = !next in
      incr next;
      incr out;
      Queue.push (i, 0.0) d.conns.(ci).pending;
      send d.conns.(ci) ~id:i keys.(i)
    end
  in
  for _ = 1 to depth do Array.iteri (fun ci _ -> send_next ci) d.conns done;
  while !out > 0 do
    List.iter
      (fun (ci, line, _) ->
        let i, _ = Queue.pop d.conns.(ci).pending in
        decr out;
        ignore (check t keys.(i) line);
        send_next ci)
      (poll d 60.0)
  done

type open_loop = {
  latencies : (float * float) array;  (* due offset, seconds from due to reply *)
  max_lag : float;  (* how late the generator sent, at worst *)
}

let open_loop d t inp =
  let n = Array.length inp.arrivals in
  let lat = Array.make n infinity in
  let lag = ref 0.0 and next = ref 0 and out = ref 0 in
  let t0 = Unix.gettimeofday () +. 0.01 in
  let drain = ref infinity in
  while !next < n || (!out > 0 && Unix.gettimeofday () < !drain) do
    let rec send_due () =
      if !next < n then begin
        let i = !next in
        let due = t0 +. fst inp.arrivals.(i) in
        let now = Unix.gettimeofday () in
        if due <= now then begin
          lag := Float.max !lag (now -. due);
          (* the connection with fewer replies outstanding, as a client
             with a connection pool would pick: replies on one connection
             come back in request order *)
          let c =
            let a = d.conns.(0) and b = d.conns.(1) in
            if Queue.length a.pending <= Queue.length b.pending then a else b
          in
          Queue.push (i, due) c.pending;
          send c ~id:i (snd inp.arrivals.(i));
          incr next;
          incr out;
          send_due ()
        end
      end
    in
    send_due ();
    if !next = n && !drain = infinity then drain := Unix.gettimeofday () +. 30.0;
    let until = if !next < n then t0 +. fst inp.arrivals.(!next) else !drain in
    List.iter
      (fun (ci, line, tr) ->
        let i, due = Queue.pop d.conns.(ci).pending in
        decr out;
        if check t (snd inp.arrivals.(i)) line then lat.(i) <- tr -. due)
      (poll d (until -. Unix.gettimeofday ()))
  done;
  (* replies still missing after the drain count as failed *)
  t.attempted <- t.attempted + !out;
  t.errors <- t.errors + !out;
  { latencies = Array.mapi (fun i l -> (fst inp.arrivals.(i), l)) lat; max_lag = !lag }

(* Closed loop: one caller per connection (both, or only the first),
   each keeping [depth] requests in flight, sending request [key_of k]
   for k = 0, 1, ... as soon as a reply arrives, for [seconds].
   Returns the completion time and latency of every successful request,
   in order. *)
let closed_loop ?(callers = 2) ?(depth = 1) d t key_of ~seconds =
  let k = ref 0 and out = ref 0 in
  let keys = Hashtbl.create 64 in
  let t_end = Unix.gettimeofday () +. seconds in
  let send_next ci =
    let i = !k in
    incr k;
    incr out;
    Hashtbl.replace keys i (key_of i);
    Queue.push (i, Unix.gettimeofday ()) d.conns.(ci).pending;
    send d.conns.(ci) ~id:i (Hashtbl.find keys i)
  in
  for _ = 1 to depth do
    for ci = 0 to callers - 1 do send_next ci done
  done;
  let latencies = ref [] in
  while !out > 0 do
    List.iter
      (fun (ci, line, tr) ->
        let i, sent = Queue.pop d.conns.(ci).pending in
        decr out;
        if check t (Hashtbl.find keys i) line then latencies := (tr, tr -. sent) :: !latencies;
        Hashtbl.remove keys i;
        if tr < t_end then send_next ci)
      (poll d 60.0)
  done;
  List.rev !latencies

(* Wall time of each run of [block] consecutive completions. *)
let blocks ~block times =
  let a = Array.of_list times in
  List.init ((Array.length a - 1) / block) (fun b -> a.((b + 1) * block) -. a.(b * block))

(* --- stats replies ---------------------------------------------------------- *)

let stat j path =
  match List.fold_left (fun j k -> Option.value ~default:Json.Null (Json.member k j)) j path with
  | Json.Int i -> i
  | _ -> 0

(* --- the workload ----------------------------------------------------------- *)

(* Phase 2 on one daemon: one untimed pass so every plan and circuit
   is cached, then the cold batch over and over on one connection, one
   request in flight; the time of each whole pass. *)
let cold_phase d t inp =
  run_list d t cold_keys ~depth:1;
  let cold = Array.of_list cold_keys in
  let done_at =
    List.map fst
      (closed_loop ~callers:1 d t (fun k -> cold.(k mod Array.length cold))
         ~seconds:inp.phase2_s)
  in
  blocks ~block:(Array.length cold) done_at

(* run_s of serve is the fastest pass of a daemon, the median over the
   daemons.  Passes of one daemon range over a factor of two: a lone
   request takes 1.6-2 times as long as its best case whenever the
   second, idle pool worker slows the busy one (with -j 1, or with a
   larger minor heap, the range closes).  How often that happens
   changed from run to run: over eight runs the median pass had an
   interquartile range of 0.08 of its median, the fastest pass 0.05.
   The ratio of the two is the per-layer serve.cold_pass_slowdown. *)
let fastest passes = List.fold_left Float.min infinity passes

(* Replies per second the results cache answers: two connections with
   eight requests in flight each (32 would queue more than the
   daemon's default --queue-bound of 32 and be refused). *)
let warm_rate d t inp =
  run_list d t warm_keys ~depth:1;
  let warm = Array.of_list warm_keys in
  let done_at =
    List.map fst
      (closed_loop ~depth:8 d t (fun k -> warm.(k mod Array.length warm))
         ~seconds:inp.phase2_s)
  in
  match (done_at, List.rev done_at) with
  | first :: _, last :: _ when last > first ->
    float_of_int (List.length done_at - 1) /. (last -. first)
  | _ -> 0.0

(* Set-up: spawn, first ping reply, the warm-up requests of the mix.
   Repeated [reps] times, each daemon then running phase 2; the last
   daemon stays up for phase 1.  Phase 2 reports the median over the
   daemons. *)
let start_daemon o inp t ~n ?obs () =
  let rec rep i times cold =
    let t0 = Unix.gettimeofday () in
    let d = spawn ~o ~n:(n + i) ?obs () in
    ignore (call d "ping");
    run_list d t inp.warmup ~depth:4;
    let times = (Unix.gettimeofday () -. t0) :: times in
    let cold = cold_phase d t inp :: cold in
    if i + 1 < inp.reps then (stop d; rep (i + 1) times cold)
    else (d, List.rev times, List.rev cold)
  in
  rep 0 [] []

type measured = {
  setup : float list;
  loop : open_loop;
  windows : float list list;  (* phase-1 latencies, ms, per fifth of the phase *)
  passes : float list list;  (* phase 2: pass times, per daemon *)
  warm_rps : float;
  campaign_s : float list * float list;  (* phase 3, alone and two at once; traced runs only *)
  rss : float;
  before : Json.t;  (* stats around phase 1 *)
  after : Json.t;
}

let measure o inp t ~n ?obs ?(markers = fun _ -> ()) () =
  let d, setup, passes = start_daemon o inp t ~n ?obs () in
  let warm_rps = warm_rate d t inp in
  let before = call d "stats" in
  markers d;
  let loop = open_loop d t inp in
  markers d;
  let after = call d "stats" in
  (* Taken before phase 3, which untraced runs skip. *)
  let rss = Machine.peak_rss_mb (Some d.pid) in
  (* Fresh seeds, so every campaign misses the results cache. *)
  let campaigns ~callers ~from ~seconds =
    List.map snd
      (closed_loop ~callers d t (fun k -> campaign (inp.campaign_seed + from + k)) ~seconds)
  in
  let campaign_s =
    if obs = None then ([], [])
    else begin
      let alone = campaigns ~callers:1 ~from:0 ~seconds:(inp.phase3_s /. 2.0) in
      markers d;
      let pair = campaigns ~callers:2 ~from:500 ~seconds:inp.phase3_s in
      markers d;
      (alone, pair)
    end
  in
  stop d;
  let windows =
    List.init 5 (fun w ->
        Array.to_list loop.latencies
        |> List.filter_map (fun (due, l) ->
               let k = int_of_float (5.0 *. due /. inp.phase1_s) in
               if min k 4 = w then Some (l *. 1000.0) else None))
  in
  { setup; loop; windows; passes; warm_rps; campaign_s; rss; before; after }

(* A failed request's latency is infinite; a percentile that reaches
   one reports the whole phase instead, so the value stays a number. *)
let capped inp s =
  let cap = inp.phase1_s *. 1000.0 in
  Stats.map (fun v -> if Float.is_finite v then v else cap) s

let e2e inp m =
  [
    ("setup_s", Stats.summarize m.setup);
    ("run_s", Stats.summarize (List.map fastest m.passes));
    ("latency_p99_ms", capped inp (Stats.pooled ~p:0.99 m.windows));
    ("peak_rss_mb", Stats.single m.rss);
  ]

let methods = [ "simulate"; "elaborate"; "codegen"; "emit" ]

(* Per-layer numbers from the traced daemon's spans between the ping
   markers around phase 1 (and phase 3, for campaigns) and from its
   stats replies. *)
let layers_of inp m ~trace_file ~overhead ~cold_slowdown =
  let spans = Layers.spans_of_json (Machine.read_file trace_file) in
  let pings =
    List.sort compare (List.filter_map (fun s -> if s.Layers.name = "serve:ping" then Some s.ts else None) spans)
  in
  (* the last four pings: before and after phase 1, before and after
     the campaigns two at a time *)
  let lo, hi, c_lo, c_hi =
    match List.rev pings with
    | p3 :: p2 :: p1 :: p0 :: _ -> (p0, p1, p2, p3)
    | _ -> failwith "serve: phase markers missing from the daemon trace"
  in
  let between a b = List.filter (fun s -> s.Layers.ts > a && s.Layers.ts < b) spans in
  let window = between lo hi in
  let wall = hi -. lo in
  let is_method_name n = String.length n > 6 && String.sub n 0 6 = "serve:" in
  let is_method s = is_method_name s.Layers.name in
  let busy_in spans meth =
    List.fold_left
      (fun acc s -> if s.Layers.name = "serve:" ^ meth then acc +. s.dur else acc)
      0.0 spans
  in
  let busy = busy_in window in
  let all_busy = List.fold_left (fun acc s -> if is_method s then acc +. s.Layers.dur else acc) 0.0 window in
  let diff path = stat m.after path - stat m.before path in
  let hit_rate cache =
    let h = diff [ "caches"; cache; "hits" ] and mi = diff [ "caches"; cache; "misses" ] in
    if h + mi = 0 then 0.0 else float_of_int h /. float_of_int (h + mi)
  in
  let requests = Array.length inp.arrivals in
  let profile =
    Layers.profile
      ~layer_of:(fun name _ ->
        if is_method_name name then
          "serve." ^ String.sub name 6 (String.length name - 6)
        else Layers.strip_index name)
      window
  in
  ( List.map (fun meth -> ("serve." ^ meth ^ ".busy_pct", Layers.pct (busy meth) wall)) methods
    @ [
        (* lane-seconds of campaigns over phase 3's wall time: up to 200% *)
        ( "serve.faultsim.busy_pct",
          Layers.pct (busy_in (between c_lo c_hi) "faultsim") (c_hi -. c_lo) );
        (* 1 when two campaigns run side by side on the two workers as
           fast as one alone; 2 when they take turns *)
        ( "serve.campaign_pair_slowdown",
          Stats.median (snd m.campaign_s) /. Stats.median (fst m.campaign_s) );
        ("serve.busy_frac", all_busy /. (float_of_int Machine.jobs *. wall));
        ("serve.cold_pass_slowdown", cold_slowdown);
        ("serve.cache.results.hit_rate", hit_rate "results");
        ("serve.cache.plans.hit_rate", hit_rate "plans");
        ("serve.cache.circuits.hit_rate", hit_rate "circuits");
        ("serve.cache.results.evictions", float_of_int (diff [ "caches"; "results"; "evictions" ]));
        ("serve.errors", float_of_int (diff [ "requests"; "errors" ]));
        ("serve.rejected", float_of_int (diff [ "requests"; "rejected" ]));
        ("serve.generator_lag_frac", m.loop.max_lag /. 0.010);
        ("trace_overhead_pct", overhead);
        ( "trace.coverage_pct",
          Layers.pct (float_of_int (List.length (List.filter is_method window))) (float_of_int requests) );
      ],
    (profile, wall) )

let run (o : Workload.opts) =
  let inp = prepare o in
  let t = tally () in
  let m = measure o inp t ~n:0 () in
  let traced =
    if not o.traced then None
    else begin
      let trace_file = Filename.concat o.out_dir "trace-serve.json" in
      let metrics_file = Filename.concat o.out_dir "metrics-serve.json" in
      let marker d = ignore (call d "ping") in
      let mt =
        measure o { inp with reps = 1 } t ~n:100 ~obs:(trace_file, metrics_file)
          ~markers:marker ()
      in
      let best m = Stats.median (List.map fastest m.passes) in
      let overhead = 100.0 *. ((best mt /. best m) -. 1.0) in
      (* from the untraced daemons: median pass over fastest pass *)
      let cold_slowdown =
        Stats.median (List.map (fun p -> Stats.median p /. fastest p) m.passes)
      in
      Some (layers_of inp mt ~trace_file ~overhead ~cold_slowdown, mt)
    end
  in
  {
    Workload.attempted = t.attempted;
    failed = t.errors;
    checks = [ ("serve.results_correct", t.wrong = 0) ];
    inputs = Workload.digest_hex (describe inp);
    e2e = e2e inp m;
    per_layer = (match traced with Some ((l, _), _) -> l | None -> []);
    profile = (match traced with Some ((_, p), _) -> Some p | None -> None);
    notes =
      [
        ("requests_phase1", Json.Int (Array.length inp.arrivals));
        ("latency_p50_ms", Json.Float (capped inp (Stats.pooled ~p:0.5 m.windows)).Stats.value);
        ("warm_replies_per_s", Json.Float m.warm_rps);
        ("generator_lag_ms_max", Json.Float (1000.0 *. m.loop.max_lag));
        ("emit_replies_renamed", Json.Int t.renamed);
        (* a generator more than 10 ms behind its schedule measured itself *)
        ("valid", Json.Bool (m.loop.max_lag <= 0.010));
      ];
  }
