open Hwpat_core

type t = {
  circuits : Hwpat_rtl.Circuit.t Cache.t;
  plans : (Hwpat_rtl.Cyclesim.plan * Designs.flavor) Cache.t;
  results : Json.t Cache.t;
  trace : Hwpat_obs.Trace.t;
  metrics : Hwpat_obs.Metrics.t;
  jobs : int;
}

let create ?(trace = Hwpat_obs.Trace.null)
    ?(metrics = Hwpat_obs.Metrics.null) ?(cache_size = 32) ?(jobs = 1) () =
  {
    circuits = Cache.create ~metrics ~name:"circuits" ~capacity:cache_size ();
    plans = Cache.create ~metrics ~name:"plans" ~capacity:cache_size ();
    results = Cache.create ~metrics ~name:"results" ~capacity:cache_size ();
    trace;
    metrics;
    jobs = Parallel.clamp_jobs jobs;
  }

let methods =
  [
    "batch"; "codegen"; "elaborate"; "emit"; "faultsim"; "ping"; "prove";
    "simulate"; "sleep"; "sweep";
  ]

let cache_stats_json t =
  let one cache =
    let c = Cache.counters cache in
    ( Cache.name cache,
      Json.Obj
        [
          ("hits", Json.Int c.Cache.hits);
          ("misses", Json.Int c.Cache.misses);
          ("evictions", Json.Int c.Cache.evictions);
          ("entries", Json.Int (Cache.length cache));
        ] )
  in
  Json.Obj [ one t.circuits; one t.plans; one t.results ]

(* Result-cache policy: [cache=false] in the params bypasses the
   lookup *and* the insert — the request recomputes through the lower
   caches, which is how the cached-vs-fresh byte-identity tests obtain
   an independently computed response.  [cacheable] gates the insert
   for requests whose payload may have been truncated by a deadline. *)
let with_result_cache t ~key ~params ?(cacheable = fun _ -> true) compute =
  if not (Json.get_bool params "cache" ~default:true) then compute ()
  else
    match Cache.find t.results key with
    | Some v -> v
    | None ->
      let v = compute () in
      if cacheable v then Cache.add t.results key v;
      v

(* Request [jobs] param: in-request campaign sharding, defaulting to
   the server-wide setting. *)
let request_jobs t params =
  match Json.get_int_opt params "jobs" with
  | None -> t.jobs
  | Some j -> Parallel.clamp_jobs j

(* The remaining request budget becomes the campaign's per-shard
   watchdog; 0.0 disables it, matching an unlimited request. *)
let campaign_policy ctx =
  let remaining = Supervise.remaining ctx in
  {
    Supervise.default_policy with
    Supervise.shard_timeout_s = (if remaining = infinity then 0.0 else remaining);
  }

let no_deadline ctx = Supervise.remaining ctx = infinity

(* --- ping ---------------------------------------------------------------- *)

let ping _t _ctx _params =
  Json.Obj [ ("pong", Json.Bool true); ("methods", Json.List (List.map (fun m -> Json.String m) methods)) ]

(* --- elaborate ----------------------------------------------------------- *)

let circuit_of_config t cfg ~pruned =
  let key =
    Printf.sprintf "%s/pruned=%b" (Canon.config_key cfg) pruned
  in
  ( key,
    Cache.find_or_add t.circuits key (fun () ->
        if pruned then Hwpat_containers.Elaborate.pruned ~trace:t.trace cfg
        else Hwpat_containers.Elaborate.full ~trace:t.trace cfg) )

let elaborate t _ctx params =
  let cfg = Canon.config_of_params params in
  let pruned = Json.get_bool params "pruned" ~default:false in
  let key, circuit = circuit_of_config t cfg ~pruned in
  let result_key = "elaborate/" ^ key in
  with_result_cache t ~key:result_key ~params (fun () ->
      let s = Hwpat_rtl.Netlist_stats.of_circuit circuit in
      Json.Obj
        [
          ("key", Json.String key);
          ("entity", Json.String (Hwpat_meta.Config.entity_name cfg));
          ("pruned", Json.Bool pruned);
          ("nodes", Json.Int s.Hwpat_rtl.Netlist_stats.nodes);
          ("register_bits", Json.Int s.Hwpat_rtl.Netlist_stats.register_bits);
          ("memory_bits", Json.Int s.Hwpat_rtl.Netlist_stats.memory_bits);
          ("memories", Json.Int s.Hwpat_rtl.Netlist_stats.memories);
          ("inputs", Json.Int s.Hwpat_rtl.Netlist_stats.inputs);
          ("outputs", Json.Int s.Hwpat_rtl.Netlist_stats.outputs);
        ])

(* --- codegen ------------------------------------------------------------- *)

let codegen t _ctx params =
  let cfg = Canon.config_of_params params in
  let unit_ =
    match Json.get_string params "unit" ~default:"container" with
    | "container" -> `Container
    | "iterator" -> `Iterator
    | other ->
      Protocol.invalid_params "unknown unit %S (valid: container, iterator)"
        other
  in
  let key =
    Printf.sprintf "codegen/%s/%s"
      (match unit_ with `Container -> "container" | `Iterator -> "iterator")
      (Canon.config_key cfg)
  in
  with_result_cache t ~key ~params (fun () ->
      let text =
        match unit_ with
        | `Container -> Hwpat_meta.Codegen.generate_container ~trace:t.trace cfg
        | `Iterator -> Hwpat_meta.Codegen.generate_iterator ~trace:t.trace cfg
      in
      Json.Obj
        [
          ("key", Json.String key);
          ("entity", Json.String (Hwpat_meta.Config.entity_name cfg));
          ("language", Json.String "vhdl");
          ("text", Json.String text);
        ])

(* --- emit: whole-design netlist back-ends -------------------------------- *)

let emit t _ctx params =
  let design = Json.get_string params "design" ~default:"saa2vga-fifo" in
  let style = Json.get_string params "style" ~default:"pattern" in
  let lang =
    String.lowercase_ascii (Json.get_string params "lang" ~default:"vhdl")
  in
  let optimize = Json.get_bool params "optimize" ~default:false in
  let key =
    Printf.sprintf "emit/%s/%s/%s/opt=%b"
      (String.lowercase_ascii design)
      (String.lowercase_ascii style)
      lang optimize
  in
  with_result_cache t ~key ~params (fun () ->
      let circuit, _ =
        Designs.build ~design ~style ~frame_w:16 ~frame_h:16
      in
      let circuit =
        if optimize then Hwpat_rtl.Optimize.circuit circuit else circuit
      in
      let text =
        match lang with
        | "vhdl" -> Hwpat_rtl.Vhdl.to_string circuit
        | "verilog" -> Hwpat_rtl.Verilog.to_string circuit
        | "dot" -> Hwpat_rtl.Dot.to_string circuit
        | other ->
          Protocol.invalid_params
            "unknown language %S (valid: vhdl, verilog, dot)" other
      in
      Json.Obj
        [
          ("key", Json.String key);
          ("design", Json.String (Hwpat_rtl.Circuit.name circuit));
          ("language", Json.String lang);
          ("text", Json.String text);
        ])

(* --- simulate ------------------------------------------------------------ *)

let plan_of_design t ~design ~style ~frame_w ~frame_h ~engine =
  let key = Canon.plan_key ~design ~style ~frame_w ~frame_h ~engine in
  ( key,
    Cache.find_or_add t.plans key (fun () ->
        let circuit, flavor = Designs.build ~design ~style ~frame_w ~frame_h in
        (Hwpat_rtl.Cyclesim.plan ~engine circuit, flavor)) )

let simulate t ctx params =
  let design = Json.get_string params "design" ~default:"saa2vga-fifo" in
  let style = Json.get_string params "style" ~default:"pattern" in
  let width = Json.get_int params "width" ~default:16 in
  let height = Json.get_int params "height" ~default:16 in
  let pattern = Json.get_string params "pattern" ~default:"gradient" in
  let engine =
    Designs.engine_of_string
      (Json.get_string params "engine" ~default:"compiled")
  in
  if width < 3 || height < 3 then
    Protocol.invalid_params "frame must be at least 3x3";
  let plan_key, (plan, flavor) =
    plan_of_design t ~design ~style ~frame_w:width ~frame_h:height ~engine
  in
  let key = Printf.sprintf "simulate/%s/p=%s" plan_key pattern in
  with_result_cache t ~key ~params (fun () ->
      let frame = Designs.frame ~pattern ~width ~height in
      let out_w, out_h = Designs.output_shape flavor ~width ~height in
      let reference = Designs.reference flavor frame in
      let sim = Hwpat_rtl.Cyclesim.of_plan plan in
      let r =
        try
          Experiment.run_video_system ~trace:t.trace ~metrics:t.metrics ~sim
            ~check:(fun () -> Supervise.check ctx)
            (Hwpat_rtl.Cyclesim.plan_circuit plan)
            ~input:frame ~out_width:out_w ~out_height:out_h
        with Experiment.Timeout d ->
          raise (Protocol.Error (Internal, Experiment.describe_timeout d))
      in
      let ok = Hwpat_video.Frame.equal r.Experiment.output reference in
      Json.Obj
        [
          ("key", Json.String key);
          ( "design",
            Json.String
              (Hwpat_rtl.Circuit.name (Hwpat_rtl.Cyclesim.plan_circuit plan)) );
          ("width", Json.Int width);
          ("height", Json.Int height);
          ("pattern", Json.String pattern);
          ("cycles", Json.Int r.Experiment.cycles);
          ("cycles_per_pixel", Json.Float r.Experiment.cycles_per_pixel);
          ("matches_reference", Json.Bool ok);
        ])

(* --- faultsim ------------------------------------------------------------ *)

let faultsim t ctx params =
  let design =
    Json.get_string params "design" ~default:"saa2vga_sram_pattern"
  in
  let seed = Json.get_int params "seed" ~default:1 in
  let faults = Json.get_int params "faults" ~default:20 in
  let frame_size = Json.get_int params "frame_size" ~default:8 in
  let lanes =
    Option.value (Json.get_int_opt params "lanes")
      ~default:Hwpat_rtl.Simbatch.lane_bits
  in
  if faults < 0 then Protocol.invalid_params "faults must be non-negative";
  if frame_size < 1 then
    Protocol.invalid_params "frame_size must be at least 1";
  if lanes < 1 || lanes > Hwpat_rtl.Simbatch.lane_bits then
    Protocol.invalid_params "lanes must be in 1..%d" Hwpat_rtl.Simbatch.lane_bits;
  let build = Faultsim.find_design design in
  (* lanes and jobs are execution hints — the summary is byte-identical
     at any value of either, so neither is part of the cache identity. *)
  let key =
    Printf.sprintf "faultsim/%s/seed=%d/faults=%d/frame=%d" design seed faults
      frame_size
  in
  with_result_cache t ~key ~params
    ~cacheable:(fun _ -> no_deadline ctx)
    (fun () ->
      let plan_key =
        Canon.plan_key ~design ~style:"faultsim" ~frame_w:frame_size
          ~frame_h:frame_size ~engine:Hwpat_rtl.Cyclesim.Compiled
      in
      let plan, _ =
        Cache.find_or_add t.plans plan_key (fun () ->
            (Hwpat_rtl.Cyclesim.plan (build ()), Designs.Copy))
      in
      let summary =
        Faultsim.run_campaign ~trace:t.trace ~metrics:t.metrics ~plan ~lanes
          ~jobs:(request_jobs t params) ~policy:(campaign_policy ctx) ~seed
          ~faults ~frame_width:frame_size ~frame_height:frame_size ~build
          ~design ()
      in
      Json.Obj
        [
          ("key", Json.String key);
          ("summary", Faultsim.json_of_summary summary);
          ("coverage", Json.Float (Faultsim.coverage summary));
          ("silent", Json.Int (Faultsim.count summary Faultsim.Silent));
          ( "unfinished",
            Json.Int (Faultsim.count summary Faultsim.Unfinished) );
        ])

(* --- sweep --------------------------------------------------------------- *)

let point_of_json j =
  match j with
  | Json.Obj _ -> (
    let kind = Canon.container_of_string (Json.get_string j "container" ~default:"queue") in
    let target = Canon.target_of_string (Json.get_string j "target" ~default:"fifo") in
    try
      Characterize.point
        ~wait_states:(Json.get_int j "wait_states" ~default:1)
        kind target
        ~elem_width:(Json.get_int j "width" ~default:8)
        ~depth:(Json.get_int j "depth" ~default:64)
    with Invalid_argument msg -> raise (Protocol.Error (Invalid_params, msg)))
  | _ -> Protocol.invalid_params "points must be a list of objects"

let sweep t ctx params =
  let points =
    match Json.get_list_opt params "points" with
    | None -> Characterize.default_points
    | Some [] -> Protocol.invalid_params "points must not be empty"
    | Some items -> List.map point_of_json items
  in
  let key =
    "sweep/"
    ^ String.concat ";" (List.map Characterize.point_label points)
  in
  with_result_cache t ~key ~params
    ~cacheable:(fun _ -> no_deadline ctx)
    (fun () ->
      let candidates =
        Characterize.sweep ~trace:t.trace ~metrics:t.metrics
          ~jobs:(request_jobs t params) ~policy:(campaign_policy ctx) ~points ()
      in
      Json.Obj
        [
          ("key", Json.String key);
          ("points", Json.Int (List.length points));
          ( "unmeasurable",
            Json.Int
              (List.length
                 (Hwpat_synthesis.Design_space.unmeasurable candidates)) );
          ( "candidates",
            Hwpat_synthesis.Design_space.json_of_candidates candidates );
        ])

(* --- prove --------------------------------------------------------------- *)

(* Never cached: each result embeds its measured solve time. *)
let prove t ctx params =
  let smoke = Json.get_bool params "smoke" ~default:true in
  let budget =
    {
      Hwpat_formal.Solver.max_conflicts =
        Json.get_int params "max_conflicts" ~default:0;
      max_propagations = Json.get_int params "max_propagations" ~default:0;
    }
  in
  if budget.Hwpat_formal.Solver.max_conflicts < 0
     || budget.Hwpat_formal.Solver.max_propagations < 0
  then Protocol.invalid_params "solver budget must be non-negative";
  let jobs = request_jobs t params in
  let results =
    Prove.run ~trace:t.trace ~metrics:t.metrics ~jobs
      ~policy:(campaign_policy ctx) ~budget ~smoke ()
  in
  Json.Obj
    [
      ("smoke", Json.Bool smoke);
      ("ok", Json.Bool (Prove.all_ok results));
      ("battery", Prove.to_json ~jobs ~smoke results);
    ]

(* --- sleep: deterministic deadline target for the tests ------------------ *)

let sleep _t ctx params =
  let seconds = Json.get_float params "seconds" ~default:0.05 in
  if seconds < 0.0 then Protocol.invalid_params "seconds must be non-negative";
  let until = Unix.gettimeofday () +. seconds in
  while Unix.gettimeofday () < until do
    Supervise.check ctx;
    Unix.sleepf 0.001
  done;
  Json.Obj [ ("slept", Json.Float seconds) ]

(* --- dispatch ------------------------------------------------------------ *)

let rec handle t ctx (req : Protocol.request) =
  let p = req.Protocol.params in
  match req.Protocol.meth with
  | "ping" -> ping t ctx p
  | "elaborate" -> elaborate t ctx p
  | "codegen" -> codegen t ctx p
  | "emit" -> emit t ctx p
  | "simulate" -> simulate t ctx p
  | "faultsim" -> faultsim t ctx p
  | "sweep" -> sweep t ctx p
  | "prove" -> prove t ctx p
  | "sleep" -> sleep t ctx p
  | "batch" -> batch t ctx p
  | other ->
    raise
      (Protocol.Error
         ( Unknown_method,
           Printf.sprintf "unknown method %S (valid: %s, stats, shutdown)"
             other
             (String.concat ", " methods) ))

(* --- batch: many sub-requests in one round trip -------------------------- *)

(* Sub-requests run sequentially under the enclosing request's
   supervision context, each answered from the caches where possible;
   one failing item reports its error in place without failing the
   batch. *)
and batch t ctx params =
  let items =
    match Json.get_list_opt params "requests" with
    | Some items -> items
    | None -> Protocol.invalid_params "missing requests"
  in
  let error code msg = Json.Obj [ Protocol.error_member code msg ] in
  let run item =
    match Protocol.parse_request item with
    | Error msg -> error Protocol.Invalid_request msg
    | Ok sub -> (
      match handle t ctx sub with
      | result -> Json.Obj [ ("result", result) ]
      | exception Protocol.Error (code, msg) -> error code msg
      | exception (Failure msg | Invalid_argument msg) ->
        error Protocol.Invalid_params msg)
  in
  let results = List.map run items in
  Json.Obj
    [ ("count", Json.Int (List.length results)); ("results", Json.List results) ]
