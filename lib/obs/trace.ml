type arg = Int of int | Float of float | String of string | Bool of bool

type event = {
  e_name : string;
  e_ph : char;  (* 'X' complete, 'i' instant, 'C' counter *)
  e_ts : float;  (* microseconds since the trace was created *)
  e_dur : float;  (* microseconds; 0 for non-span events *)
  e_tid : int;  (* domain id *)
  e_path : string;  (* parent/child aggregation path; spans only *)
  e_args : (string * arg) list;
}

type span = {
  s_name : string;
  s_path : string;
  s_start : float;
  mutable s_args : (string * arg) list;
}

type active = {
  mutex : Mutex.t;
  mutable events : event list;  (* newest first *)
  t0 : float;
  stack : span list ref Domain.DLS.key;
      (* each domain nests its own spans; only [events] is shared *)
}

type t = Null | Active of active

let null = Null

let create () =
  Active
    {
      mutex = Mutex.create ();
      events = [];
      t0 = Unix.gettimeofday ();
      stack = Domain.DLS.new_key (fun () -> ref []);
    }

let enabled = function Null -> false | Active _ -> true
let tid () = (Domain.self () :> int)
let us a now = (now -. a.t0) *. 1e6

let record a e =
  Mutex.lock a.mutex;
  a.events <- e :: a.events;
  Mutex.unlock a.mutex

let span t ?(args = []) name f =
  match t with
  | Null -> f ()
  | Active a ->
    let st = Domain.DLS.get a.stack in
    let path =
      match !st with [] -> name | p :: _ -> p.s_path ^ "/" ^ name
    in
    let s =
      { s_name = name; s_path = path;
        s_start = Unix.gettimeofday (); s_args = args }
    in
    st := s :: !st;
    let finish () =
      (match !st with [] -> () | _ :: rest -> st := rest);
      let stop = Unix.gettimeofday () in
      record a
        {
          e_name = s.s_name;
          e_ph = 'X';
          e_ts = us a s.s_start;
          e_dur = (stop -. s.s_start) *. 1e6;
          e_tid = tid ();
          e_path = path;
          e_args = List.rev s.s_args;
        }
    in
    Fun.protect ~finally:finish f

let instant t ?(args = []) name =
  match t with
  | Null -> ()
  | Active a ->
    record a
      {
        e_name = name;
        e_ph = 'i';
        e_ts = us a (Unix.gettimeofday ());
        e_dur = 0.0;
        e_tid = tid ();
        e_path = "";
        e_args = args;
      }

let annotate t key v =
  match t with
  | Null -> ()
  | Active a -> (
    match !(Domain.DLS.get a.stack) with
    | [] -> ()
    | s :: _ -> s.s_args <- (key, v) :: List.remove_assoc key s.s_args)

let counter t name series =
  match t with
  | Null -> ()
  | Active a ->
    record a
      {
        e_name = name;
        e_ph = 'C';
        e_ts = us a (Unix.gettimeofday ());
        e_dur = 0.0;
        e_tid = tid ();
        e_path = "";
        e_args = List.map (fun (k, v) -> (k, Float v)) series;
      }

(* ---------------------------------------------------------------- *)
(* Export                                                           *)
(* ---------------------------------------------------------------- *)

let json_of_arg = function
  | Int i -> Json.Int i
  | Float f -> Json.Float f
  | String s -> Json.String s
  | Bool b -> Json.Bool b

let events_of = function
  | Null -> []
  | Active a ->
    Mutex.lock a.mutex;
    let es = a.events in
    Mutex.unlock a.mutex;
    List.rev es

(* Timestamps and durations keep the microsecond-and-three-decimals
   precision trace viewers expect. *)
let event_json e =
  let instant = if e.e_ph = 'i' then [ ("s", Json.String "t") ] else [] in
  let args = List.map (fun (k, v) -> (k, json_of_arg v)) e.e_args in
  Json.Obj
    ([ ("name", Json.String e.e_name); ("ph", Json.String (String.make 1 e.e_ph));
       ("ts", Json.rounded 3 e.e_ts); ("dur", Json.rounded 3 e.e_dur);
       ("pid", Json.Int 1); ("tid", Json.Int e.e_tid) ]
    @ instant @ [ ("args", Json.Obj args) ])

let chrome_doc t =
  Json.Obj [ ("traceEvents", Json.List (List.map event_json (events_of t))) ]

let to_chrome_json t = Json.to_string (chrome_doc t) ^ "\n"

let summary t =
  let agg = Hashtbl.create 16 in
  let order = ref [] in
  List.iter
    (fun e ->
      if e.e_ph = 'X' then
        match Hashtbl.find_opt agg e.e_path with
        | Some (n, d) -> Hashtbl.replace agg e.e_path (n + 1, d +. e.e_dur)
        | None ->
          order := e.e_path :: !order;
          Hashtbl.add agg e.e_path (1, e.e_dur))
    (events_of t);
  let paths = List.sort compare (List.rev !order) in
  let buf = Buffer.create 1024 in
  List.iter
    (fun path ->
      let n, dur = Hashtbl.find agg path in
      let depth =
        String.fold_left (fun d c -> if c = '/' then d + 1 else d) 0 path
      in
      let name =
        match String.rindex_opt path '/' with
        | None -> path
        | Some i -> String.sub path (i + 1) (String.length path - i - 1)
      in
      Buffer.add_string buf
        (Printf.sprintf "%s%-*s %6d call%s %10.2f ms\n"
           (String.make (2 * depth) ' ')
           (max 1 (32 - (2 * depth)))
           name n
           (if n = 1 then " " else "s")
           (dur /. 1e3)))
    paths;
  Buffer.contents buf

let write_file t path = Json.to_file path (chrome_doc t)
