(* Splitting a traced iteration's wall time by layer.

   Two sources feed one table.  Spans come from a Chrome trace: the
   benchmark's own spans around its calls into each module, with the
   program's existing spans nested under them.  Calls made once per
   simulated cycle are too many for spans, so a [clock] charges them
   instead: each [tick] bills the time since the previous tick to a
   layer, which leaves no gap between consecutive calls.

   A layer's self time is the time its spans cover minus the time
   their nested spans cover.  Worker domains record on their own lanes,
   so summed over lanes self time is measured in lane-seconds and the
   shares of a parallel phase can add up to more than 100%. *)

module Json = Hwpat_serve.Json

(* The root span the benchmark opens around each traced iteration. *)
let root = "iteration"

type clock = {
  mutable last : float;
  acc : (string, int * float) Hashtbl.t;
}

let clock () = { last = 0.0; acc = Hashtbl.create 8 }
let start c = c.last <- Unix.gettimeofday ()

let tick c layer =
  let now = Unix.gettimeofday () in
  let n, s = Option.value ~default:(0, 0.0) (Hashtbl.find_opt c.acc layer) in
  Hashtbl.replace c.acc layer (n + 1, s +. (now -. c.last));
  c.last <- now

type span = { name : string; ts : float; dur : float; tid : int }

let spans_of_json text =
  match Json.parse text with
  | Error e -> failwith ("trace is not JSON: " ^ e)
  | Ok doc ->
    let events = Option.value ~default:[] (Json.get_list_opt doc "traceEvents") in
    List.filter_map
      (fun e ->
        if Json.get_string e "ph" ~default:"" <> "X" then None
        else
          Some
            {
              name = Json.get_string e "name" ~default:"";
              ts = Json.get_float e "ts" ~default:0.0 /. 1e6;
              dur = Json.get_float e "dur" ~default:0.0 /. 1e6;
              tid = Json.get_int e "tid" ~default:0;
            })
      events

(* "fault#12" -> "fault#": numbered instances of one span share a row. *)
let strip_index name =
  match String.index_opt name '#' with
  | Some i -> String.sub name 0 (i + 1)
  | None -> name

type row = {
  layer : string;
  mutable calls : int;
  mutable self_s : float;
  mutable durs : float list;  (* per-call durations, for skew *)
}

type profile = {
  rows : row list;  (* largest self time first *)
  wall : float;  (* summed duration of the root spans *)
  unaccounted : float;  (* root self time not charged by a clock *)
}

(* [layer_of name parent] names the layer a span's self time belongs
   to; [parent] is the enclosing span's layer on the same lane.  A span
   mapped to its parent's layer merges into it (and is not counted as
   another call). *)
let profile ?(layer_of = fun name _ -> strip_index name) ?clock spans =
  let rows = Hashtbl.create 32 in
  let row layer =
    match Hashtbl.find_opt rows layer with
    | Some r -> r
    | None ->
      let r = { layer; calls = 0; self_s = 0.0; durs = [] } in
      Hashtbl.add rows layer r;
      r
  in
  let wall = ref 0.0 and root_self = ref 0.0 in
  let by_tid = Hashtbl.create 4 in
  List.iter
    (fun s ->
      Hashtbl.replace by_tid s.tid
        (s :: Option.value ~default:[] (Hashtbl.find_opt by_tid s.tid)))
    spans;
  Hashtbl.iter
    (fun _ lane ->
      let lane =
        List.sort
          (fun a b -> if a.ts = b.ts then compare b.dur a.dur else compare a.ts b.ts)
          lane
      in
      (* stack of (span, layer, time covered by children, merged?) *)
      let stack = ref [] in
      let finish (s, layer, child, merged) =
        let self = Float.max 0.0 (s.dur -. !child) in
        if layer = root then begin
          wall := !wall +. s.dur;
          root_self := !root_self +. self
        end
        else begin
          let r = row layer in
          r.self_s <- r.self_s +. self;
          if not merged then begin
            r.calls <- r.calls + 1;
            r.durs <- s.dur :: r.durs
          end
        end
      in
      List.iter
        (fun s ->
          let rec pop () =
            match !stack with
            | ((p, _, _, _) as top) :: rest when p.ts +. p.dur <= s.ts ->
              finish top;
              stack := rest;
              pop ()
            | _ -> ()
          in
          pop ();
          let parent =
            match !stack with
            | (_, layer, child, _) :: _ ->
              child := !child +. s.dur;
              Some layer
            | [] -> None
          in
          let layer = if s.name = root then root else layer_of s.name parent in
          stack := (s, layer, ref 0.0, parent = Some layer) :: !stack)
        lane;
      List.iter finish !stack)
    by_tid;
  let charged = ref 0.0 in
  Option.iter
    (fun c ->
      Hashtbl.iter
        (fun layer (n, s) ->
          let r = row layer in
          r.calls <- r.calls + n;
          r.self_s <- r.self_s +. s;
          charged := !charged +. s)
        c.acc)
    clock;
  {
    rows =
      List.sort (fun a b -> compare b.self_s a.self_s)
        (Hashtbl.fold (fun _ r acc -> r :: acc) rows []);
    wall = !wall;
    unaccounted = Float.max 0.0 (!root_self -. !charged);
  }

let self p layer =
  match List.find_opt (fun r -> r.layer = layer) p.rows with
  | Some r -> r.self_s
  | None -> 0.0

let durations p layer =
  match List.find_opt (fun r -> r.layer = layer) p.rows with
  | Some r -> r.durs
  | None -> []

let pct part whole = if whole > 0.0 then 100.0 *. part /. whole else 0.0

(* Share of the root spans' wall time that some layer accounts for. *)
let coverage_pct p = pct (p.wall -. p.unaccounted) p.wall

(* Per-layer metrics named "<layer>.self_pct": self time as a share of
   the traced wall time. *)
let self_pct_metrics p ~wall names =
  List.filter_map
    (fun name ->
      let suffix = ".self_pct" in
      let n = String.length name and k = String.length suffix in
      if n > k && String.sub name (n - k) k = suffix then
        Some (name, pct (self p (String.sub name 0 (n - k))) wall)
      else None)
    names

let render p ~wall =
  let b = Buffer.create 1024 in
  Buffer.add_string b
    (Printf.sprintf "  %-28s %8s %10s %8s\n" "layer" "calls" "self s" "share");
  List.iter
    (fun r ->
      Buffer.add_string b
        (Printf.sprintf "  %-28s %8d %10.4f %7.1f%%\n" r.layer r.calls r.self_s
           (pct r.self_s wall)))
    p.rows;
  if p.wall > 0.0 then
    Buffer.add_string b
      (Printf.sprintf "  %-28s %8s %10.4f %7.1f%%\n" "(unaccounted)" ""
         p.unaccounted (pct p.unaccounted wall));
  Buffer.contents b

let to_json p ~wall =
  Json.List
    (List.map
       (fun r ->
         Json.Obj
           [
             ("layer", Json.String r.layer);
             ("calls", Json.Int r.calls);
             ("self_s", Json.Float r.self_s);
             ("share_pct", Json.Float (pct r.self_s wall));
           ])
       p.rows)
