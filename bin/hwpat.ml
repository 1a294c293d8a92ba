(* hwpat — command line front-end to the library.

   Subcommands:
     generate   emit VHDL for a generated container (and its iterator)
     simulate   run one of the paper's designs on a synthetic frame
     report     resource estimates: the Table 3 comparison
     sweep      design-space characterisation (§3.4)
     tables     print the capability tables and the pattern catalog
     emit       netlist back-ends: VHDL/Verilog for a whole design *)

open Cmdliner

(* Container and target names, parsed by the metamodel's short-name
   table. *)
let short_name_conv what of_short_name name =
  let parse s =
    match of_short_name s with
    | Some x -> Ok x
    | None -> Error (`Msg (Printf.sprintf "unknown %s %S" what s))
  in
  Arg.conv (parse, fun fmt x -> Format.pp_print_string fmt (name x))

let kind_conv =
  Hwpat_meta.Metamodel.(
    short_name_conv "container" container_of_short_name container_name)

let target_conv =
  Hwpat_meta.Metamodel.(short_name_conv "target" target_of_short_name target_name)

(* --- generate ---------------------------------------------------------- *)

let generate kind target width depth bus parity op_timeout iterator out =
  let cfg =
    try
      Hwpat_meta.Config.make ~instance_name:"gen" ~kind ~target ~elem_width:width
        ~depth ?bus_width:bus ~parity ?op_timeout ()
    with Invalid_argument msg ->
      prerr_endline ("hwpat: " ^ msg);
      exit 2
  in
  let text =
    if iterator then Hwpat_meta.Codegen.generate_iterator cfg
    else Hwpat_meta.Codegen.generate_container cfg
  in
  let issues = Hwpat_meta.Vhdl_lint.check text in
  (match out with
  | None -> print_string text
  | Some path ->
    Hwpat_rtl.Util.write_file path text;
    Printf.printf "wrote %s\n" path);
  if issues <> [] then begin
    List.iter
      (fun i -> Format.eprintf "lint: %a@." Hwpat_meta.Vhdl_lint.pp_issue i)
      issues;
    exit 1
  end

let generate_cmd =
  let kind =
    Arg.(
      required
      & opt (some kind_conv) None
      & info [ "container"; "c" ] ~docv:"KIND"
          ~doc:"Container kind: stack, queue, rbuffer, wbuffer, vector, assoc.")
  in
  let target =
    Arg.(
      required
      & opt (some target_conv) None
      & info [ "target"; "t" ] ~docv:"TARGET"
          ~doc:"Physical target: fifo, lifo, bram, sram, linebuf3.")
  in
  let width =
    Arg.(value & opt int 8 & info [ "width"; "w" ] ~doc:"Element width in bits.")
  in
  let depth =
    Arg.(value & opt int 512 & info [ "depth"; "d" ] ~doc:"Capacity in elements.")
  in
  let bus =
    Arg.(
      value
      & opt (some int) None
      & info [ "bus" ] ~doc:"Physical bus width (defaults to the element width).")
  in
  let parity =
    Arg.(
      value & flag
      & info [ "parity" ]
          ~doc:"Protect the storage with a parity bit and an err output.")
  in
  let op_timeout =
    Arg.(
      value
      & opt (some int) None
      & info [ "op-timeout" ] ~docv:"CYCLES"
          ~doc:
            "Add a watchdog that bounds memory handshakes to $(docv) cycles \
             (SRAM targets only).")
  in
  let iterator =
    Arg.(
      value & flag
      & info [ "iterator"; "i" ] ~doc:"Emit the iterator wrapper instead.")
  in
  let out =
    Arg.(
      value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE")
  in
  Cmd.v
    (Cmd.info "generate" ~doc:"Generate VHDL for a container or iterator")
    Term.(
      const generate $ kind $ target $ width $ depth $ bus $ parity $ op_timeout
      $ iterator $ out)

(* --- package -------------------------------------------------------------- *)

let package out =
  let mk instance_name kind target =
    Hwpat_meta.Config.make ~instance_name ~kind ~target ~elem_width:8 ~depth:512 ()
  in
  let open Hwpat_meta.Metamodel in
  let configs =
    [
      mk "rbuffer" Read_buffer Fifo_core;
      mk "rbuffer" Read_buffer Ext_sram;
      mk "wbuffer" Write_buffer Fifo_core;
      mk "wbuffer" Write_buffer Ext_sram;
      mk "queue" Queue Fifo_core;
      mk "queue" Queue Block_ram;
      mk "stack" Stack Lifo_core;
      mk "vector" Vector Block_ram;
      mk "assoc" Assoc_array Block_ram;
    ]
  in
  let text =
    Hwpat_meta.Codegen.generate_package ~name:"basic_components" configs
  in
  match out with
  | None -> print_string text
  | Some path ->
    Hwpat_rtl.Util.write_file path text;
    Printf.printf "wrote %s\n" path

let package_cmd =
  let out = Arg.(value & opt (some string) None & info [ "o"; "output" ]) in
  Cmd.v
    (Cmd.info "package"
       ~doc:"Emit the basic-components foundation package (VHDL)")
    Term.(const package $ out)

(* --- design selection shared by simulate/report/emit --------------------
   The catalog itself lives in [Hwpat_core.Designs] so the serve daemon
   dispatches the same designs with the same error wording. *)

let build_design name style ~frame_w ~frame_h =
  Hwpat_core.Designs.build ~design:name ~style ~frame_w ~frame_h

let make_frame pattern w h =
  Hwpat_core.Designs.frame ~pattern ~width:w ~height:h

(* --- observability flags shared by simulate/faultsim/sweep/prove --------- *)

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Profile the run and write a Chrome trace-event JSON file to \
           $(docv) (load it in chrome://tracing or Perfetto).")

let metrics_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics" ] ~docv:"FILE"
        ~doc:
          "Write simulator/solver counters and histograms as JSON to $(docv).")

(* Build the Trace/Metrics handles a command was asked for, run its
   body, and write the output files afterwards.  Commands signal
   partial failure with [exit] (mismatch, silent fault, failed proof),
   which bypasses [Fun.protect]'s finaliser — the [at_exit] hook (with
   the idempotence guard) makes sure the profile still lands on disk on
   those paths; raised exceptions are covered by [Fun.protect] before
   the top-level handler turns them into [exit 2]. *)
let with_obs trace_path metrics_path f =
  let trace =
    match trace_path with
    | None -> Hwpat_obs.Trace.null
    | Some _ -> Hwpat_obs.Trace.create ()
  in
  let metrics =
    match metrics_path with
    | None -> Hwpat_obs.Metrics.null
    | Some _ -> Hwpat_obs.Metrics.create ()
  in
  let flushed = ref false in
  let flush () =
    if not !flushed then begin
      flushed := true;
      Option.iter
        (fun path ->
          Hwpat_obs.Trace.write_file trace path;
          Printf.eprintf "trace written to %s\n%!" path)
        trace_path;
      Option.iter
        (fun path ->
          Hwpat_obs.Metrics.write_file metrics path;
          Printf.eprintf "metrics written to %s\n%!" path)
        metrics_path
    end
  in
  at_exit flush;
  Fun.protect ~finally:flush (fun () -> f ~trace ~metrics)

(* --- simulate ----------------------------------------------------------- *)

let simulate design style width height pattern show vcd engine trace_path
    metrics_path =
  let engine = Hwpat_core.Designs.engine_of_string engine in
  let circuit, flavor = build_design design style ~frame_w:width ~frame_h:height in
  let frame = make_frame pattern width height in
  let out_w, out_h =
    Hwpat_core.Designs.output_shape flavor ~width ~height
  in
  let reference = Hwpat_core.Designs.reference flavor frame in
  with_obs trace_path metrics_path @@ fun ~trace ~metrics ->
  let r =
    try
      Hwpat_core.Experiment.run_video_system ~trace ~metrics ~engine
        ?vcd_path:vcd circuit ~input:frame ~out_width:out_w ~out_height:out_h
    with Hwpat_core.Experiment.Timeout d ->
      prerr_endline (Hwpat_core.Experiment.describe_timeout d);
      exit 2
  in
  Option.iter (Printf.printf "waveform written to %s\n") vcd;
  Printf.printf "%s on %dx%d %s: %d cycles (%.2f per output pixel)\n"
    (Hwpat_rtl.Circuit.name circuit)
    width height pattern r.Hwpat_core.Experiment.cycles
    r.Hwpat_core.Experiment.cycles_per_pixel;
  let ok = Hwpat_video.Frame.equal r.Hwpat_core.Experiment.output reference in
  Printf.printf "output vs software reference: %s\n"
    (if ok then "bit-exact" else "MISMATCH");
  if show then begin
    print_endline "input:";
    print_string (Hwpat_video.Frame.to_string frame);
    print_endline "output:";
    print_string (Hwpat_video.Frame.to_string r.Hwpat_core.Experiment.output)
  end;
  if not ok then exit 1

let design_arg =
  Arg.(
    value
    & opt string "saa2vga-fifo"
    & info [ "design" ] ~doc:"saa2vga-fifo, saa2vga-sram, blur or sobel.")

let style_arg =
  Arg.(value & opt string "pattern" & info [ "style" ] ~doc:"pattern or custom.")

let simulate_cmd =
  let width = Arg.(value & opt int 16 & info [ "frame-width" ]) in
  let height = Arg.(value & opt int 16 & info [ "frame-height" ]) in
  let pattern =
    Arg.(
      value & opt string "gradient"
      & info [ "pattern" ] ~doc:"gradient, checker, random or bars.")
  in
  let show = Arg.(value & flag & info [ "show" ] ~doc:"Print ASCII frames.") in
  let vcd =
    Arg.(
      value
      & opt (some string) None
      & info [ "vcd" ] ~docv:"FILE" ~doc:"Dump a VCD waveform of the run.")
  in
  let engine =
    Arg.(
      value & opt string "compiled"
      & info [ "engine" ] ~doc:"Simulation engine: compiled or reference.")
  in
  Cmd.v
    (Cmd.info "simulate" ~doc:"Simulate a design on a synthetic frame")
    Term.(
      const simulate $ design_arg $ style_arg $ width $ height $ pattern $ show
      $ vcd $ engine $ trace_arg $ metrics_arg)

(* --- report ------------------------------------------------------------- *)

let report frame_size =
  let rows =
    Hwpat_core.Experiment.table3 ~frame_width:frame_size ~frame_height:frame_size
      ()
  in
  print_string (Hwpat_core.Experiment.render_table3 rows)

let report_cmd =
  let frame_size =
    Arg.(value & opt int 16 & info [ "frame-size" ] ~doc:"Test frame edge length.")
  in
  Cmd.v
    (Cmd.info "report" ~doc:"Resource comparison (Table 3)")
    Term.(const report $ frame_size)

(* --- jobs flag shared by sweep/faultsim ---------------------------------- *)

(* Default: one domain per recommended core, clamped; explicit values
   are clamped into [1, Parallel.max_jobs] rather than rejected. *)
let jobs_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "jobs"; "j" ] ~docv:"N"
        ~doc:
          "Shard the work across $(docv) domains (default: the \
           recommended domain count for this machine).")

let resolve_jobs = function
  | Some j -> Hwpat_core.Parallel.clamp_jobs j
  | None -> Hwpat_core.Parallel.default_jobs ()

(* --- resilience flags shared by sweep/faultsim/prove --------------------- *)

let checkpoint_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "checkpoint" ] ~docv:"FILE"
        ~doc:
          "Journal each completed shard to $(docv) as it finishes (crash-safe \
           append-only JSONL), so an interrupted campaign can be continued \
           with $(b,--resume).")

let resume_arg =
  Arg.(
    value & flag
    & info [ "resume" ]
        ~doc:
          "Skip shards already recorded in the $(b,--checkpoint) journal and \
           replay their recorded results; the final summary is byte-identical \
           to an uninterrupted run. Errors out if the journal was written by \
           a different campaign configuration.")

let shard_timeout_arg =
  Arg.(
    value
    & opt float 0.0
    & info [ "shard-timeout" ] ~docv:"SECONDS"
        ~doc:
          "Per-shard wall-clock watchdog: a shard still running after \
           $(docv) seconds is abandoned, retried ($(b,--retries)), and \
           finally reported as unfinished instead of hanging the campaign. \
           A $(b,faultsim) shard is one batch of up to $(b,--lanes) \
           faults, so the deadline covers the whole batch and a timeout \
           marks all of its faults unfinished. 0 disables the watchdog.")

let retries_arg =
  Arg.(
    value
    & opt int Hwpat_core.Supervise.default_policy.Hwpat_core.Supervise.retries
    & info [ "retries" ] ~docv:"N"
        ~doc:
          "Retry a timed-out or transiently failed shard up to $(docv) times \
           (deterministic exponential backoff) before reporting it \
           unfinished.")

let resolve_resilience ~checkpoint ~resume ~retries ~shard_timeout =
  if resume && checkpoint = None then begin
    prerr_endline "hwpat: --resume requires --checkpoint";
    exit 2
  end;
  if retries < 0 then begin
    prerr_endline "hwpat: --retries must be non-negative";
    exit 2
  end;
  if shard_timeout < 0.0 then begin
    prerr_endline "hwpat: --shard-timeout must be non-negative";
    exit 2
  end;
  {
    Hwpat_core.Supervise.default_policy with
    Hwpat_core.Supervise.retries;
    shard_timeout_s = shard_timeout;
  }

(* First ^C: cooperative shutdown — workers stop claiming shards,
   in-flight shards finish, the checkpoint journal and --trace/--metrics
   files are flushed, and the command prints its partial summary before
   exiting 130.  A second ^C restores the default handler's immediate
   death for runs that refuse to wind down. *)
let with_sigint f =
  let cancel = Hwpat_core.Parallel.token () in
  let previous =
    Sys.signal Sys.sigint
      (Sys.Signal_handle
         (fun _ ->
           Hwpat_core.Parallel.cancel cancel;
           Sys.set_signal Sys.sigint Sys.Signal_default))
  in
  Fun.protect
    ~finally:(fun () -> Sys.set_signal Sys.sigint previous)
    (fun () -> f cancel)

let exit_interrupted ~checkpoint =
  prerr_endline
    (match checkpoint with
    | Some path ->
      Printf.sprintf
        "hwpat: interrupted — partial results above; continue with --resume \
         --checkpoint %s"
        path
    | None -> "hwpat: interrupted — partial results above");
  exit 130

(* --- sweep --------------------------------------------------------------- *)

let sweep max_brams max_cycles jobs checkpoint resume retries shard_timeout
    trace_path metrics_path =
  let policy = resolve_resilience ~checkpoint ~resume ~retries ~shard_timeout in
  with_obs trace_path metrics_path @@ fun ~trace ~metrics ->
  with_sigint @@ fun cancel ->
  let candidates =
    Hwpat_core.Characterize.sweep ~trace ~metrics ~jobs:(resolve_jobs jobs)
      ~policy ~cancel ?checkpoint ~resume ()
  in
  if Hwpat_obs.Metrics.enabled metrics then begin
    Hwpat_obs.Metrics.incr metrics ~by:(List.length candidates) "sweep.points";
    Hwpat_obs.Metrics.incr metrics
      ~by:
        (List.length (Hwpat_synthesis.Design_space.unmeasurable candidates))
      "sweep.unmeasurable"
  end;
  print_endline (Hwpat_synthesis.Design_space.to_table candidates);
  let constraints =
    {
      Hwpat_synthesis.Design_space.no_constraints with
      Hwpat_synthesis.Design_space.max_brams;
      max_access_cycles = max_cycles;
    }
  in
  print_endline "";
  print_endline (Hwpat_core.Characterize.region_report ~constraints candidates);
  if Hwpat_core.Parallel.cancelled cancel then exit_interrupted ~checkpoint

let sweep_cmd =
  let max_brams =
    Arg.(value & opt (some int) None & info [ "max-brams" ] ~doc:"Constraint.")
  in
  let max_cycles =
    Arg.(
      value
      & opt (some float) None
      & info [ "max-access-cycles" ] ~doc:"Constraint.")
  in
  Cmd.v
    (Cmd.info "sweep" ~doc:"Characterise the container design space")
    Term.(
      const sweep $ max_brams $ max_cycles $ jobs_arg $ checkpoint_arg
      $ resume_arg $ retries_arg $ shard_timeout_arg $ trace_arg $ metrics_arg)

(* --- faultsim -------------------------------------------------------------- *)

(* [_batch] is [--batch], still accepted but ignored: batching is
   always on. *)
let faultsim design seed faults frame_size overhead _batch lanes jobs checkpoint
    resume retries shard_timeout trace_path metrics_path =
  if faults < 0 then begin
    prerr_endline "hwpat: --faults must be non-negative";
    exit 2
  end;
  if frame_size < 1 then begin
    prerr_endline "hwpat: --frame-size must be at least 1";
    exit 2
  end;
  if lanes < 1 || lanes > Hwpat_rtl.Simbatch.lane_bits then begin
    Printf.eprintf "hwpat: --lanes must be in 1..%d\n"
      Hwpat_rtl.Simbatch.lane_bits;
    exit 2
  end;
  let policy = resolve_resilience ~checkpoint ~resume ~retries ~shard_timeout in
  let build = Hwpat_core.Faultsim.find_design design in
  with_obs trace_path metrics_path @@ fun ~trace ~metrics ->
  with_sigint @@ fun cancel ->
  let summary =
    Hwpat_core.Faultsim.run_campaign ~trace ~metrics ~lanes
      ~jobs:(resolve_jobs jobs) ~policy ~cancel ?checkpoint ~resume ~seed
      ~faults ~frame_width:frame_size ~frame_height:frame_size ~build ~design ()
  in
  print_string (Hwpat_core.Faultsim.render summary);
  if overhead then begin
    print_endline "\nprotection hardware overhead (pattern sram vs protected):";
    print_endline Hwpat_synthesis.Resource_report.table3_header;
    print_endline
      (Hwpat_synthesis.Resource_report.table3_row
         (Hwpat_core.Faultsim.protection_overhead ()))
  end;
  if Hwpat_core.Parallel.cancelled cancel then exit_interrupted ~checkpoint;
  if Hwpat_core.Faultsim.count summary Hwpat_core.Faultsim.Silent > 0 then exit 1

let faultsim_cmd =
  let design =
    let names = Hwpat_core.Faultsim.design_names in
    Arg.(
      value
      & opt (enum (List.map (fun n -> (n, n)) names)) "saa2vga_sram_pattern"
      & info [ "design" ]
          ~doc:(Printf.sprintf "One of: %s." (String.concat ", " names)))
  in
  let seed =
    Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Campaign RNG seed.")
  in
  let faults =
    Arg.(value & opt int 20 & info [ "faults" ] ~doc:"Number of faults to inject.")
  in
  let frame_size =
    Arg.(value & opt int 8 & info [ "frame-size" ] ~doc:"Test frame edge length.")
  in
  let overhead =
    Arg.(
      value & flag
      & info [ "overhead" ]
          ~doc:"Also report the resource cost of the protection hardware.")
  in
  let batch =
    Arg.(
      value & flag
      & info [ "batch" ]
          ~doc:
            "Accepted for compatibility and ignored: campaigns always run \
             on the bit-parallel batched engine, up to $(b,--lanes) faults \
             per simulation, one per bit-lane of each machine word.")
  in
  let lanes =
    Arg.(
      value
      & opt int Hwpat_rtl.Simbatch.lane_bits
      & info [ "lanes" ] ~docv:"N"
          ~doc:
            "Faults per batched simulation (1..64). The summary is \
             byte-identical at any lane count; only throughput changes. \
             $(b,--lanes 1) runs one fault per simulation.")
  in
  Cmd.v
    (Cmd.info "faultsim"
       ~doc:
         "Run a seeded fault-injection campaign with runtime monitors \
          attached; exits non-zero if any fault goes silent")
    Term.(
      const faultsim $ design $ seed $ faults $ frame_size $ overhead $ batch
      $ lanes $ jobs_arg $ checkpoint_arg $ resume_arg $ retries_arg
      $ shard_timeout_arg $ trace_arg $ metrics_arg)

(* --- prove ----------------------------------------------------------------- *)

(* CONFLICTS or CONFLICTS/PROPAGATIONS; 0 means unlimited on that
   axis, mirroring {!Hwpat_formal.Solver.budget}. *)
let budget_conv =
  let parse s =
    let budget c p =
      if c < 0 || p < 0 then
        Error (`Msg "solver budget components must be non-negative")
      else
        Ok
          {
            Hwpat_formal.Solver.max_conflicts = c;
            Hwpat_formal.Solver.max_propagations = p;
          }
    in
    match String.index_opt s '/' with
    | None -> (
      match int_of_string_opt s with
      | Some c -> budget c 0
      | None ->
        Error
          (`Msg
            (Printf.sprintf
               "invalid solver budget %S (expected CONFLICTS or \
                CONFLICTS/PROPAGATIONS)"
               s)))
    | Some i -> (
      let conflicts = String.sub s 0 i in
      let props = String.sub s (i + 1) (String.length s - i - 1) in
      match (int_of_string_opt conflicts, int_of_string_opt props) with
      | Some c, Some p -> budget c p
      | _ ->
        Error
          (`Msg
            (Printf.sprintf
               "invalid solver budget %S (expected CONFLICTS or \
                CONFLICTS/PROPAGATIONS)"
               s)))
  in
  let print fmt b =
    Format.fprintf fmt "%d/%d" b.Hwpat_formal.Solver.max_conflicts
      b.Hwpat_formal.Solver.max_propagations
  in
  Arg.conv (parse, print)

let prove smoke jobs json budget checkpoint resume retries shard_timeout
    trace_path metrics_path =
  let jobs = resolve_jobs jobs in
  let policy = resolve_resilience ~checkpoint ~resume ~retries ~shard_timeout in
  with_obs trace_path metrics_path @@ fun ~trace ~metrics ->
  with_sigint @@ fun cancel ->
  let results =
    Hwpat_core.Prove.run ~trace ~metrics ~jobs ~policy ~cancel ?checkpoint
      ~resume ~budget ~smoke ()
  in
  print_string (Hwpat_core.Prove.summary results);
  (match json with
  | None -> ()
  | Some path ->
    Hwpat_obs.Json.to_file path (Hwpat_core.Prove.to_json ~jobs ~smoke results);
    Printf.printf "wrote %s\n" path);
  if Hwpat_core.Parallel.cancelled cancel then exit_interrupted ~checkpoint;
  if not (Hwpat_core.Prove.all_ok results) then exit 1

let prove_cmd =
  let smoke =
    Arg.(
      value & flag
      & info [ "smoke" ]
          ~doc:
            "Run the reduced CI battery: the paper-design monitor proofs at \
             a lower bound plus ten optimizer-equivalence seeds.")
  in
  let json =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:"Also write the results as JSON to $(docv).")
  in
  let budget =
    Arg.(
      value
      & opt budget_conv Hwpat_formal.Solver.no_budget
      & info [ "solver-budget" ] ~docv:"SPEC"
          ~doc:
            "Cap each SAT solve at $(docv) = CONFLICTS or \
             CONFLICTS/PROPAGATIONS operations (deterministic, not wall \
             clock); obligations that trip the cap report an honest \
             'unknown' verdict instead of running unbounded. 0 means \
             unlimited.")
  in
  Cmd.v
    (Cmd.info "prove"
       ~doc:
         "Discharge the formal proof battery: protocol-monitor BMC on the \
          paper designs, SAT equivalence of optimised and pruned variants; \
          exits non-zero if any obligation fails or is unknown")
    Term.(
      const prove $ smoke $ jobs_arg $ json $ budget $ checkpoint_arg
      $ resume_arg $ retries_arg $ shard_timeout_arg $ trace_arg $ metrics_arg)

(* --- serve ----------------------------------------------------------------- *)

let serve socket jobs campaign_jobs cache_size max_inflight queue_bound
    max_request_bytes trace_path metrics_path =
  if cache_size < 0 then begin
    prerr_endline "hwpat: --cache-size must be non-negative";
    exit 2
  end;
  if max_inflight < 1 || queue_bound < 1 then begin
    prerr_endline "hwpat: --max-inflight and --queue-bound must be positive";
    exit 2
  end;
  if max_request_bytes < 256 then begin
    prerr_endline "hwpat: --max-request-bytes must be at least 256";
    exit 2
  end;
  with_obs trace_path metrics_path @@ fun ~trace ~metrics ->
  let config =
    {
      Hwpat_serve.Server.jobs = resolve_jobs jobs;
      campaign_jobs = Hwpat_core.Parallel.clamp_jobs campaign_jobs;
      cache_size;
      max_inflight;
      queue_bound;
      max_request_bytes;
      trace;
      metrics;
    }
  in
  let server = Hwpat_serve.Server.create config in
  (* First ^C: stop intake, drain in-flight requests, flush the
     --trace/--metrics files and exit 0.  A second ^C kills. *)
  let previous =
    Sys.signal Sys.sigint
      (Sys.Signal_handle
         (fun _ ->
           Hwpat_serve.Server.stop server;
           Sys.set_signal Sys.sigint Sys.Signal_default))
  in
  Fun.protect
    ~finally:(fun () -> Sys.set_signal Sys.sigint previous)
    (fun () ->
      match socket with
      | None -> Hwpat_serve.Server.run_stdio server
      | Some path ->
        Printf.eprintf "hwpat: serving on %s\n%!" path;
        Hwpat_serve.Server.run_socket server ~path)

let serve_cmd =
  let socket =
    Arg.(
      value
      & opt (some string) None
      & info [ "socket" ] ~docv:"PATH"
          ~doc:
            "Listen on a Unix domain socket at $(docv) instead of serving \
             stdin/stdout.")
  in
  let campaign_jobs =
    Arg.(
      value & opt int 1
      & info [ "campaign-jobs" ] ~docv:"N"
          ~doc:
            "Default shard count for campaigns run inside one request \
             (faultsim, sweep, prove); a request's own $(b,jobs) param \
             overrides it.")
  in
  let cache_size =
    Arg.(
      value & opt int 32
      & info [ "cache-size" ] ~docv:"N"
          ~doc:
            "LRU capacity of each artifact cache (elaborated circuits, \
             compiled simulation plans, result payloads). 0 disables \
             caching.")
  in
  let max_inflight =
    Arg.(
      value & opt int 64
      & info [ "max-inflight" ] ~docv:"N"
          ~doc:
            "Admission limit: total requests queued or executing before new \
             ones are rejected with an $(i,overloaded) error.")
  in
  let queue_bound =
    Arg.(
      value & opt int 32
      & info [ "queue-bound" ] ~docv:"N"
          ~doc:"Admission limit on queued (not yet executing) requests.")
  in
  let max_request_bytes =
    Arg.(
      value
      & opt int (1 lsl 20)
      & info [ "max-request-bytes" ] ~docv:"BYTES"
          ~doc:
            "Longest accepted request line; longer ones are answered with an \
             $(i,oversized) error and discarded unread.")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the persistent design-service daemon: line-delimited JSON \
          requests over stdio or a Unix socket, dispatched concurrently \
          with netlist/plan caching; see the protocol notes in DESIGN.md")
    Term.(
      const serve $ socket $ jobs_arg $ campaign_jobs $ cache_size
      $ max_inflight $ queue_bound $ max_request_bytes $ trace_arg
      $ metrics_arg)

(* --- tables --------------------------------------------------------------- *)

let tables () =
  print_endline "Table 1 — common containers:\n";
  print_endline Hwpat_meta.Metamodel.table1;
  print_endline "\nTable 2 — iterator operations:\n";
  print_endline Hwpat_meta.Metamodel.table2;
  print_endline "\nPattern catalog:\n";
  List.iter
    (fun p -> print_endline (Hwpat_core.Pattern.describe p))
    Hwpat_core.Pattern.catalog

let tables_cmd =
  Cmd.v
    (Cmd.info "tables" ~doc:"Print the capability tables and pattern catalog")
    Term.(const tables $ const ())

(* --- emit ------------------------------------------------------------------ *)

let emit design style lang optimize out =
  let circuit, _ = build_design design style ~frame_w:16 ~frame_h:16 in
  let circuit =
    if optimize then Hwpat_rtl.Optimize.circuit circuit else circuit
  in
  let text =
    match String.lowercase_ascii lang with
    | "vhdl" -> Hwpat_rtl.Vhdl.to_string circuit
    | "verilog" -> Hwpat_rtl.Verilog.to_string circuit
    | "dot" -> Hwpat_rtl.Dot.to_string circuit
    | other ->
      failwith
        (Printf.sprintf "unknown language %S (valid: vhdl, verilog, dot)" other)
  in
  match out with
  | None -> print_string text
  | Some path ->
    Hwpat_rtl.Util.write_file path text;
    Printf.printf "wrote %s\n" path

let emit_cmd =
  let lang =
    Arg.(value & opt string "vhdl" & info [ "lang" ] ~doc:"vhdl, verilog or dot.")
  in
  let optimize =
    Arg.(value & flag & info [ "optimize" ] ~doc:"Run constant propagation first.")
  in
  let out = Arg.(value & opt (some string) None & info [ "o"; "output" ]) in
  Cmd.v
    (Cmd.info "emit" ~doc:"Emit a whole design through a netlist back-end")
    Term.(const emit $ design_arg $ style_arg $ lang $ optimize $ out)

let subcommands =
  [ generate_cmd; simulate_cmd; report_cmd; sweep_cmd; tables_cmd;
    emit_cmd; package_cmd; faultsim_cmd; prove_cmd; serve_cmd ]

(* One-line summaries for the bare `hwpat` listing, in the order the
   subcommands are registered above. *)
let subcommand_summaries =
  [
    ("generate", "emit VHDL for a generated container or iterator");
    ("simulate", "run a paper design on a synthetic frame");
    ("report", "resource estimates: the Table 3 comparison");
    ("sweep", "characterise the container design space");
    ("tables", "print the capability tables and pattern catalog");
    ("emit", "emit a whole design through a netlist back-end");
    ("package", "emit the basic-components foundation package");
    ("faultsim", "seeded fault-injection campaign with runtime monitors");
    ("prove", "discharge the formal proof battery (BMC + equivalence)");
    ("serve", "persistent design-service daemon (JSON over stdio/socket)");
  ]

(* Bare `hwpat` prints a one-line summary per subcommand instead of
   cmdliner's manual page, so the tool is discoverable from a plain
   invocation. *)
let default_term =
  let list_commands () =
    Printf.printf "hwpat %s - hardware design patterns toolkit\n\n"
      Version.version;
    print_endline "Subcommands:";
    List.iter
      (fun (name, doc) -> Printf.printf "  %-10s %s\n" name doc)
      subcommand_summaries;
    print_endline "\nRun 'hwpat COMMAND --help' for details."
  in
  Term.(const list_commands $ const ())

let () =
  let info =
    Cmd.info "hwpat" ~version:Version.version
      ~doc:"Hardware design patterns: the Iterator pattern for hardware"
  in
  (* User errors (unknown design/style/engine/language/pattern) are
     raised as [Failure]/[Invalid_argument] deep in the command bodies;
     without [~catch:false] cmdliner would print them as uncaught
     exceptions with a backtrace and exit 125.  Turn them into a
     one-line diagnostic and the conventional usage-error exit code. *)
  match
    Cmd.eval ~catch:false (Cmd.group ~default:default_term info subcommands)
  with
  | code -> exit code
  | exception Hwpat_core.Journal.Config_mismatch { path; expected; found } ->
    Printf.eprintf
      "hwpat: checkpoint %s was written by a different campaign\n\
      \  expected: %s\n\
      \  found:    %s\n\
       Pass a fresh --checkpoint path, or drop --resume to overwrite it.\n"
      path expected found;
    exit 2
  | exception (Failure msg | Invalid_argument msg) ->
    prerr_endline ("hwpat: " ^ msg);
    exit 2
