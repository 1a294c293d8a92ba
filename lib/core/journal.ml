(* Crash-safe checkpoint journal for resumable campaigns.

   The format is line-oriented JSON: a header line binding the journal
   to one campaign configuration, then one line per completed shard,
   appended and flushed as each shard finishes.  Keys are the
   campaigns' uid-independent shard descriptions, so a journal written
   by one process (serial or sharded, any job count) replays in any
   other.

   Crash safety comes from the append-and-flush discipline plus a
   tolerant reader: a SIGKILL can tear at most the final line, and the
   loader simply stops at the first line that does not parse — every
   fully-flushed record before it is preserved.  (The final summary
   artifacts go through [Util.with_out_file]'s atomic tmp+rename
   scheme instead; the journal is the one file that must survive
   being killed mid-write, which is exactly what append-only gives.)

   Each line is one [Json] object, read back with [Json.parse], so any
   key or payload string round-trips byte-exactly and the older spaced
   layout ([{"key": "...", "data": "..."}]) still loads.  Payloads are
   opaque strings owned by each campaign's codec. *)

type entry = { e_key : string; e_data : string }

type t = {
  path : string;
  config : string;
  mutable oc : out_channel option;
  mutex : Mutex.t;
  completed : (string, string) Hashtbl.t;
  mutable resumed : int;  (* entries loaded from disk at open time *)
  note : string option;  (* anomaly worth telling the user, e.g. empty file *)
}

exception Config_mismatch of { path : string; expected : string; found : string }

module Json = Hwpat_obs.Json

let header_line config =
  Json.(to_string (Obj [ ("hwpat_checkpoint", Int 1); ("config", String config) ]))

let parse_header line =
  match Json.parse line with
  | Ok (Obj [ ("hwpat_checkpoint", Int 1); ("config", String c) ]) -> Some c
  | _ -> None

let entry_line ~key data =
  Json.(to_string (Obj [ ("key", String key); ("data", String data) ]))

let parse_entry line =
  match Json.parse line with
  | Ok (Obj [ ("key", String k); ("data", String d) ]) ->
    Some { e_key = k; e_data = d }
  | _ -> None

(* Read every parseable record; stop at the first torn or foreign
   line (a crash can tear only the final one). *)
let load_entries ic =
  let entries = ref [] in
  let stop = ref false in
  (try
     while not !stop do
       match input_line ic with
       | line -> (
         match parse_entry line with
         | Some e -> entries := e :: !entries
         | None -> stop := true)
       | exception End_of_file -> stop := true
     done
   with Sys_error _ -> ());
  List.rev !entries

let start ~path ~config ~resume =
  let completed = Hashtbl.create 97 in
  let resumed = ref 0 in
  let note = ref None in
  if resume && Sys.file_exists path then begin
    let ic = open_in path in
    Fun.protect ~finally:(fun () -> close_in_noerr ic) @@ fun () ->
    (match input_line ic with
    | header -> (
      match parse_header header with
      | Some found when String.equal found config -> ()
      | Some found -> raise (Config_mismatch { path; expected = config; found })
      | None ->
        failwith
          (Printf.sprintf "checkpoint %s is not a hwpat checkpoint journal"
             path))
    | exception End_of_file ->
      (* Zero-length file: a crash landed before even the header was
         flushed. There is nothing to replay and nothing inconsistent —
         behave exactly like a fresh run, but say so out loud rather
         than silently discarding the --resume request. *)
      let msg =
        Printf.sprintf "checkpoint %s was empty; starting a fresh run" path
      in
      note := Some msg;
      Printf.eprintf "hwpat: note: %s\n%!" msg);
    List.iter
      (fun e ->
        if not (Hashtbl.mem completed e.e_key) then incr resumed;
        Hashtbl.replace completed e.e_key e.e_data)
      (load_entries ic)
  end;
  (* Rewrite the journal from the surviving records (through the
     atomic tmp+rename writer), dropping any torn tail, then reopen in
     append mode for the new run's records. *)
  Hwpat_rtl.Util.with_out_file path (fun oc ->
      output_string oc (header_line config);
      output_char oc '\n';
      Hashtbl.fold (fun k d acc -> (k, d) :: acc) completed []
      |> List.sort compare
      |> List.iter (fun (k, d) ->
             output_string oc (entry_line ~key:k d);
             output_char oc '\n'));
  let oc = open_out_gen [ Open_append; Open_wronly ] 0o644 path in
  {
    path;
    config;
    oc = Some oc;
    mutex = Mutex.create ();
    completed;
    resumed = !resumed;
    note = !note;
  }

let find t key = Hashtbl.find_opt t.completed key
let resumed t = t.resumed
let note t = t.note
let completed t = Hashtbl.length t.completed
let path t = t.path

let record t ~key data =
  Mutex.protect t.mutex (fun () ->
      match t.oc with
      | None -> ()
      | Some oc ->
        Hashtbl.replace t.completed key data;
        output_string oc (entry_line ~key data);
        output_char oc '\n';
        (* Flush per record: after this returns the shard's result
           survives any crash; a kill mid-write tears only this line
           and the loader drops it. *)
        flush oc)

let close t =
  Mutex.protect t.mutex (fun () ->
      match t.oc with
      | None -> ()
      | Some oc ->
        t.oc <- None;
        close_out_noerr oc)
