(* hwbench — the end-to-end benchmark (see README.md).

     hwbench run [--workload W] [--seed N] [--seconds S] [--trace 0|1]
                 [--runs N] [--smoke] [--spec FILE] [--out FILE]
                 [--write-baseline FILE]
     hwbench compare BASE.json NEW.json [--spec FILE]

   [run] with one --workload measures it in this process, prints its
   table, writes its result file and prints a one-line JSON summary as
   the last line of standard output.  Without --workload it runs every
   workload of the catalogue, each in fresh child processes, one after
   another, and merges their result files.  [compare] prints a verdict
   per workload and end-to-end metric and exits 1 on any regression. *)

let default_seed = 1

let usage () =
  prerr_endline
    "usage: hwbench run [--workload W] [--seed N] [--seconds S] [--trace 0|1] \
     [--runs N] [--smoke] [--spec FILE] [--out FILE] [--write-baseline FILE]\n\
    \       hwbench compare BASE.json NEW.json [--spec FILE]";
  exit 2

(* --name value pairs and bare flags, in any order. *)
let parse args =
  let rec go opts pos = function
    | [] -> (opts, List.rev pos)
    | "--smoke" :: rest -> go (("smoke", "1") :: opts) pos rest
    | flag :: v :: rest when String.length flag > 2 && String.sub flag 0 2 = "--" ->
      go ((String.sub flag 2 (String.length flag - 2), v) :: opts) pos rest
    | flag :: [] when String.length flag > 2 && String.sub flag 0 2 = "--" -> usage ()
    | p :: rest -> go opts (p :: pos) rest
  in
  go [] [] args

let int_opt opts k ~default =
  match List.assoc_opt k opts with
  | None -> default
  | Some v -> (match int_of_string_opt v with Some i -> i | None -> usage ())

let float_opt opts k ~default =
  match List.assoc_opt k opts with
  | None -> default
  | Some v -> (match float_of_string_opt v with Some f -> f | None -> usage ())

let out_dir = ".hwbench"

(* A smoke run is always traced: it checks every catalogued metric. *)
let opts_of kv : Workload.opts =
  let smoke = List.mem_assoc "smoke" kv in
  {
    seed = int_opt kv "seed" ~default:default_seed;
    seconds = (if smoke then 0.0 else float_opt kv "seconds" ~default:10.0);
    traced = smoke || int_opt kv "trace" ~default:0 <> 0;
    smoke;
    out_dir;
  }

let spec_of kv = Spec.load (Option.value ~default:Spec.default_path (List.assoc_opt "spec" kv))

let measure (spec : Spec.t) (o : Workload.opts) name =
  let per_layer_names = List.map (fun (m : Spec.metric) -> m.name) spec.per_layer in
  let iterative w = Workload.run_iterative o ~per_layer_names w in
  let outcome =
    match name with
    | "simulate" -> iterative (W_simulate.workload o)
    | "faultsim" -> iterative (W_faultsim.workload o)
    | "generate" -> iterative (W_generate.workload o)
    | "prove" -> iterative (W_prove.workload o)
    | "serve" -> W_serve.run o
    | other -> failwith ("unknown workload " ^ other)
  in
  (* A layer the workload does not exercise reads 0. *)
  let per_layer =
    if not o.traced then []
    else
      List.map
        (fun n -> (n, Option.value ~default:0.0 (List.assoc_opt n outcome.per_layer)))
        per_layer_names
  in
  { outcome with per_layer }

(* [hwbench setup]: build one workload's inputs in a fresh process and
   report ready; the parent times it. *)
let setup kv =
  let o = opts_of kv in
  (match List.assoc_opt "workload" kv with
  | Some "simulate" -> W_simulate.setup o
  | Some "faultsim" -> W_faultsim.setup o
  | Some "generate" -> W_generate.setup o
  | Some "prove" -> ()  (* the battery has no inputs *)
  | _ -> usage ());
  print_endline "ready"

let run_one spec kv name =
  let o = opts_of kv in
  let outcome = measure spec o name in
  let w = Report.workload_json name outcome in
  Report.print_workload spec name outcome;
  let path =
    Option.value ~default:(Filename.concat out_dir (name ^ ".json")) (List.assoc_opt "out" kv)
  in
  Report.write path (Report.file_json ~opts:o [ w ]);
  print_endline (Report.summary_line spec ~traced:o.traced w)

(* Every workload in its own child process, one after another; with
   --runs N, N processes per workload at seeds seed .. seed+N-1. *)
let run_all (spec : Spec.t) kv =
  let o = opts_of kv in
  let runs = int_opt kv "runs" ~default:1 in
  let child name r =
    let path = Filename.concat out_dir (Printf.sprintf "%s-%d.json" name r) in
    let args =
      [ Sys.executable_name; "run"; "--workload"; name; "--seed"; string_of_int (o.seed + r);
        "--seconds"; Printf.sprintf "%g" o.seconds; "--trace"; (if o.traced then "1" else "0");
        "--out"; path; "--spec"; Option.value ~default:Spec.default_path (List.assoc_opt "spec" kv) ]
      @ if o.smoke then [ "--smoke" ] else []
    in
    (* the child's tables go to a log; this process prints the summary *)
    let log =
      Unix.openfile (Filename.chop_suffix path ".json" ^ ".log")
        [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
    in
    let pid =
      Unix.create_process Sys.executable_name (Array.of_list args) Unix.stdin log Unix.stderr
    in
    Unix.close log;
    match Unix.waitpid [] pid with
    | _, Unix.WEXITED 0 -> Report.find_workload (Report.read path) name
    | _ -> None
  in
  let results =
    List.map
      (fun name ->
        let rs = List.init runs (child name) in
        (name, if List.mem None rs then None else Some (Report.merge_runs (List.filter_map Fun.id rs))))
      spec.workloads
  in
  let ok = ref true in
  List.iter
    (fun (name, r) ->
      match r with
      | None -> ok := false; Printf.printf "%s: run failed\n" name
      | Some w ->
        print_string (Report.summary_row spec name w);
        let gone = Report.missing spec ~traced:o.traced w in
        if gone <> [] then begin
          ok := false;
          Printf.printf "%s: missing or non-finite metrics: %s\n" name (String.concat ", " gone)
        end;
        if not (Hwpat_serve.Json.get_bool w "correct" ~default:false) then begin
          ok := false;
          Printf.printf "%s: a correctness check failed\n" name
        end)
    results;
  let merged = Report.file_json ~opts:o (List.filter_map snd results) in
  let out = Option.value ~default:(Filename.concat out_dir "results.json") (List.assoc_opt "out" kv) in
  Report.write out merged;
  Printf.printf "wrote %s\n" out;
  (match List.assoc_opt "write-baseline" kv with
  | None -> ()
  | Some path -> (
    match Machine.oversubscription () with
    | Some reason -> Printf.printf "skipped: %s\n" reason
    | None when not !ok -> print_endline "skipped: the run failed"
    | None ->
      Report.write path merged;
      Printf.printf "baseline written to %s\n" path));
  if not !ok then exit 1

let () =
  match Array.to_list Sys.argv with
  | _ :: cmd :: args -> (
    let kv, pos = parse args in
    try
      match (cmd, pos) with
      | "run", [] -> (
        if not (Sys.file_exists out_dir) then Unix.mkdir out_dir 0o755;
        let spec = spec_of kv in
        match List.assoc_opt "workload" kv with
        | Some name -> run_one spec kv name
        | None -> run_all spec kv)
      | "setup", [] -> setup kv
      | "compare", [ base; next ] ->
        if not (Report.compare_files (spec_of kv) base next) then exit 1
      | _ -> usage ()
    with Failure msg | Invalid_argument msg ->
      prerr_endline ("hwbench: " ^ msg);
      exit 2)
  | _ -> usage ()
