(* Result files, the one-line summary the last line of a run prints,
   the human-readable tables, and the comparison of two result files.
   Every file goes through the serve daemon's JSON printer. *)

module Json = Hwpat_serve.Json

let workload_json name (o : Workload.outcome) =
  let open Json in
  Obj
    [
      ("workload", String name);
      ("correct", Bool (List.for_all snd o.checks));
      ("attempted", Int o.attempted);
      ("failed", Int o.failed);
      ("inputs", String o.inputs);
      ("checks", Obj (List.map (fun (k, v) -> (k, Bool v)) o.checks));
      ("end_to_end", Obj (List.map (fun (k, s) -> (k, Stats.to_json s)) o.e2e));
      ("per_layer", Obj (List.map (fun (k, v) -> (k, Float v)) o.per_layer));
      ( "layers",
        match o.profile with Some (p, wall) -> Layers.to_json p ~wall | None -> List [] );
      ("notes", Obj o.notes);
    ]

let file_json ~(opts : Workload.opts) workloads =
  Json.Obj
    [
      ("fingerprint", Machine.fingerprint ~seed:opts.seed);
      ("seconds", Json.Float opts.seconds);
      ("traced", Json.Bool opts.traced);
      ("smoke", Json.Bool opts.smoke);
      ("workloads", Json.List workloads);
    ]

let write path json =
  Hwpat_rtl.Util.write_file path (Json.to_string json ^ "\n")

let read path =
  match Json.parse (Machine.read_file path) with
  | Ok j -> j
  | Error e -> failwith (Printf.sprintf "%s: %s" path e)

let workloads_of file = Option.value ~default:[] (Json.get_list_opt file "workloads")

let find_workload file name =
  List.find_opt (fun w -> Json.get_string w "workload" ~default:"" = name) (workloads_of file)

(* One workload's results from several runs (seeds) as one: each
   end-to-end metric becomes the median of the runs' values, with the
   quartiles across runs as its spread; per-layer metrics take the
   median; counts add up; checks must hold in every run. *)
let merge_runs = function
  | [ w ] -> w
  | first :: _ as ws ->
    let group g = List.filter_map (Json.member g) ws in
    let names g =
      match group g with Json.Obj kv :: _ -> List.map fst kv | _ -> []
    in
    let values g name conv =
      List.filter_map (fun o -> Option.map conv (Json.member name o)) (group g)
    in
    let value = function
      | Json.Obj _ as s -> Stats.number (Json.member "value" s)
      | v -> Stats.number (Some v)
    in
    let sum k = List.fold_left (fun n w -> n + Json.get_int w k ~default:0) 0 ws in
    let all_checks =
      List.map
        (fun k ->
          ( k,
            Json.Bool
              (List.for_all
                 (fun w ->
                   Option.bind (Json.member "checks" w) (Json.member k)
                   = Some (Json.Bool true))
                 ws) ))
        (names "checks")
    in
    Json.Obj
      [
        ("workload", Option.value ~default:Json.Null (Json.member "workload" first));
        ("correct", Json.Bool (List.for_all (fun w -> Json.get_bool w "correct" ~default:false) ws));
        ("attempted", Json.Int (sum "attempted"));
        ("failed", Json.Int (sum "failed"));
        ("runs", Json.Int (List.length ws));
        ("inputs", Json.List (List.filter_map (Json.member "inputs") ws));
        ("checks", Json.Obj all_checks);
        ( "end_to_end",
          Json.Obj
            (List.map
               (fun n -> (n, Stats.to_json (Stats.summarize (values "end_to_end" n value))))
               (names "end_to_end")) );
        ( "per_layer",
          Json.Obj
            (List.map
               (fun n -> (n, Json.Float (Stats.median (values "per_layer" n value))))
               (names "per_layer")) );
        ("layers", Option.value ~default:(Json.List []) (Json.member "layers" first));
        ("notes", Option.value ~default:(Json.Obj []) (Json.member "notes" first));
      ]
  | [] -> invalid_arg "Report.merge_runs: no runs"

(* A metric's value in a workload result: end-to-end metrics are
   summaries, per-layer ones plain numbers. *)
let metric_value w group name =
  match Option.bind (Json.member group w) (Json.member name) with
  | Some (Json.Obj _ as s) -> Stats.number (Json.member "value" s)
  | v -> Stats.number v

(* Metrics the catalogue names but a workload result lacks or holds as
   a non-number. *)
let missing (spec : Spec.t) ~traced w =
  let has group name = Float.is_finite (metric_value w group name) in
  List.filter_map
    (fun (m : Spec.metric) -> if has "end_to_end" m.name then None else Some m.name)
    spec.end_to_end
  @
  if traced then
    List.filter_map
      (fun (m : Spec.metric) -> if has "per_layer" m.name then None else Some m.name)
      spec.per_layer
  else []

(* The last line of a single-workload run: the end-to-end metrics, or
   with tracing the per-layer ones, each with its unit. *)
let summary_line (spec : Spec.t) ~traced w =
  let gone = missing spec ~traced w in
  List.iter (fun m -> Printf.eprintf "hwbench: metric %s missing\n" m) gone;
  let value group name =
    let v = metric_value w group name in
    if Float.is_finite v then v else 0.0
  in
  let group, metrics =
    if traced then ("per_layer", spec.per_layer) else ("end_to_end", spec.end_to_end)
  in
  Json.to_string
    (Json.Obj
       [
         ("correct", Json.Bool (Json.get_bool w "correct" ~default:false && gone = []));
         ("attempted", Json.Int (max 1 (Json.get_int w "attempted" ~default:0)));
         ("failed", Json.Int (Json.get_int w "failed" ~default:0));
         ( "metrics",
           Json.Obj
             (List.map
                (fun (m : Spec.metric) ->
                  ( m.name,
                    Json.Obj
                      [ ("value", Json.Float (value group m.name)); ("unit", Json.String m.unit_) ] ))
                metrics) );
       ])

let print_workload (spec : Spec.t) name (o : Workload.outcome) =
  Printf.printf "== %s  (inputs %s)\n" name o.inputs;
  List.iter
    (fun (k, (s : Stats.summary)) ->
      let unit_ = match Spec.find spec k with Some m -> m.unit_ | None -> "" in
      Printf.printf "  %-18s %14.4f %-6s  q1 %.4f  q3 %.4f  n %d\n" k s.value unit_ s.q1 s.q3 s.n)
    o.e2e;
  Printf.printf "  operations: %d attempted, %d failed\n" o.attempted o.failed;
  List.iter
    (fun (k, ok) -> Printf.printf "  check %-34s %s\n" k (if ok then "ok" else "FAILED"))
    o.checks;
  List.iter (fun (k, v) -> Printf.printf "  note  %-34s %s\n" k (Json.to_string v)) o.notes;
  match o.profile with
  | None -> ()
  | Some (p, wall) ->
    Printf.printf "  traced: %.3f s of layer wall time\n%s" wall (Layers.render p ~wall);
    List.iter
      (fun (k, v) ->
        if not (String.ends_with ~suffix:".self_pct" k) then
          Printf.printf "  %-38s %14.4f\n" k v)
      o.per_layer

(* One line per workload of a merged result: every end-to-end value. *)
let summary_row (spec : Spec.t) name w =
  let cell (m : Spec.metric) =
    Printf.sprintf "%s %.4g %s" m.name (metric_value w "end_to_end" m.name) m.unit_
  in
  Printf.sprintf "%-9s %-7s %s\n" name
    (if Json.get_bool w "correct" ~default:false then "ok" else "FAILED")
    (String.concat "  " (List.map cell spec.end_to_end))

(* --- compare ---------------------------------------------------------------- *)

type verdict = Improved | Unchanged | Worse | Unresolved

let verdict_name = function
  | Improved -> "improved"
  | Unchanged -> "unchanged"
  | Worse -> "worse"
  | Unresolved -> "unresolved"

(* A change counts when it exceeds the metric's bound; when either
   side's own spread is wider than the bound the two cannot be told
   apart. *)
let verdict (m : Spec.metric) (b : Stats.summary) (n : Stats.summary) =
  let change = (n.value -. b.value) /. b.value in
  let worse_by = if m.lower_is_better then change else -.change in
  if Float.max (Stats.spread b) (Stats.spread n) > m.bound then Unresolved
  else if worse_by > m.bound then Worse
  else if worse_by < -.m.bound then Improved
  else Unchanged

let compare_files (spec : Spec.t) base_path new_path =
  let base = read base_path and next = read new_path in
  let fp f k = Option.bind (Json.member "fingerprint" f) (Json.member k) in
  List.iter
    (fun (label, f) ->
      match fp f "oversubscribed" with
      | Some (Json.Bool true) -> Printf.printf "note: %s was measured oversubscribed\n" label
      | _ -> ())
    [ (base_path, base); (new_path, next) ];
  Printf.printf "%-9s %-15s %28s %28s %8s  %s\n" "workload" "metric" "base (q1-q3)"
    "new (q1-q3)" "change" "verdict";
  let worse = ref 0 in
  List.iter
    (fun wname ->
      match (find_workload base wname, find_workload next wname) with
      | Some bw, Some nw ->
        List.iter
          (fun (m : Spec.metric) ->
            let get w =
              Option.map Stats.of_json
                (Option.bind (Json.member "end_to_end" w) (Json.member m.name))
            in
            match (get bw, get nw) with
            | Some b, Some n ->
              let v = verdict m b n in
              if v = Worse then incr worse;
              let cell (s : Stats.summary) =
                Printf.sprintf "%.4g (%.4g-%.4g)" s.value s.q1 s.q3
              in
              Printf.printf "%-9s %-15s %28s %28s %+7.1f%%  %s (bound %.0f%%)\n" wname m.name
                (cell b) (cell n)
                (100.0 *. (n.value -. b.value) /. b.value)
                (verdict_name v) (100.0 *. m.bound)
            | _ -> Printf.printf "%-9s %-15s missing\n" wname m.name)
          spec.end_to_end
      | _ -> Printf.printf "%-9s not in both files\n" wname)
    spec.workloads;
  !worse = 0
