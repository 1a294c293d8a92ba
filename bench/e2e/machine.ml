(* What a result was measured on: the machine fingerprint every result
   file carries, and the process-level readings (peak memory) taken
   from /proc. *)

(* Every campaign and the serve daemon run with this many domains. *)
let jobs = 2

let read_file path =
  match open_in_bin path with
  | ic ->
    Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () ->
        really_input_string ic (in_channel_length ic))
  | exception Sys_error _ -> ""

(* /proc text files report length 0; read them line by line. *)
let proc_lines path =
  match open_in path with
  | exception Sys_error _ -> []
  | ic ->
    let rec go acc =
      match input_line ic with
      | line -> go (line :: acc)
      | exception End_of_file -> close_in_noerr ic; List.rev acc
    in
    go []

let field lines key =
  List.find_map
    (fun l ->
      match String.index_opt l ':' with
      | Some i when String.trim (String.sub l 0 i) = key ->
        Some (String.trim (String.sub l (i + 1) (String.length l - i - 1)))
      | _ -> None)
    lines

(* CPUs this process may run on, as nproc(1) counts them: the
   affinity mask from Cpus_allowed_list ("0-1,4"). *)
let nproc () =
  match field (proc_lines "/proc/self/status") "Cpus_allowed_list" with
  | None -> 0
  | Some list ->
    List.fold_left
      (fun n part ->
        match String.split_on_char '-' (String.trim part) with
        | [ a ] when int_of_string_opt a <> None -> n + 1
        | [ a; b ] -> (
          match (int_of_string_opt a, int_of_string_opt b) with
          | Some a, Some b -> n + (b - a + 1)
          | _ -> n)
        | _ -> n)
      0
      (String.split_on_char ',' list)

let cpu_model () =
  Option.value ~default:"unknown"
    (field (proc_lines "/proc/cpuinfo") "model name")

(* The commit of the checkout, read from .git without running git (a
   checkout without .git reports "unknown"). *)
let commit () =
  let head = String.trim (read_file ".git/HEAD") in
  let prefix = "ref: " in
  let pl = String.length prefix in
  if head = "" then "unknown"
  else if String.length head > pl && String.sub head 0 pl = prefix then begin
    let ref_ = String.sub head pl (String.length head - pl) in
    match String.trim (read_file (".git/" ^ ref_)) with
    | "" ->
      (* packed ref: "<sha> <ref>" lines *)
      List.find_map
        (fun l ->
          match String.split_on_char ' ' l with
          | [ sha; r ] when r = ref_ -> Some sha
          | _ -> None)
        (String.split_on_char '\n' (read_file ".git/packed-refs"))
      |> Option.value ~default:"unknown"
    | sha -> sha
  end
  else head

let recommended_domains () = Domain.recommended_domain_count ()

(* A run is oversubscribed when it asks for more domains than the
   machine recommends: its parallel numbers then measure time slicing,
   not the program. *)
let oversubscription () =
  let rec_ = recommended_domains () in
  if jobs > rec_ then
    Some
      (Printf.sprintf "oversubscribed: jobs %d > %d recommended domains" jobs
         rec_)
  else None

let fingerprint ~seed =
  let open Hwpat_serve.Json in
  Obj
    [
      ("nproc", Int (nproc ()));
      ("recommended_domains", Int (recommended_domains ()));
      ("cpu", String (cpu_model ()));
      ("ocaml", String Sys.ocaml_version);
      ("commit", String (commit ()));
      ("seed", Int seed);
      ("jobs", Int jobs);
      ("oversubscribed", Bool (oversubscription () <> None));
    ]

(* Peak resident set (VmHWM) of a process, in MB. *)
let peak_rss_mb pid =
  let path =
    match pid with
    | None -> "/proc/self/status"
    | Some p -> Printf.sprintf "/proc/%d/status" p
  in
  match field (proc_lines path) "VmHWM" with
  | Some v -> (
    match String.split_on_char ' ' v with
    | kb :: _ -> (
      match float_of_string_opt kb with Some kb -> kb /. 1024.0 | None -> nan)
    | [] -> nan)
  | None -> nan
