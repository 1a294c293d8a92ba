(* The metric catalogue, read from BENCHMARK.json: the one place that
   names every metric with its unit, direction and regression bound. *)

module Json = Hwpat_serve.Json

type metric = {
  name : string;
  unit_ : string;
  lower_is_better : bool;
  bound : float;  (* 0 for per-layer metrics, which have none *)
}

type t = { workloads : string list; end_to_end : metric list; per_layer : metric list }

let default_path = "BENCHMARK.json"

let load path =
  let text =
    match open_in_bin path with
    | ic ->
      Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () ->
          really_input_string ic (in_channel_length ic))
    | exception Sys_error e -> failwith ("cannot read the metric catalogue: " ^ e)
  in
  let doc =
    match Json.parse text with
    | Ok d -> d
    | Error e -> failwith (Printf.sprintf "%s: %s" path e)
  in
  let list key = Option.value ~default:[] (Json.get_list_opt doc key) in
  let metric j =
    {
      name = Json.get_string j "name" ~default:"";
      unit_ = Json.get_string j "unit" ~default:"";
      lower_is_better = Json.get_string j "better" ~default:"lower" = "lower";
      bound = Json.get_float j "bound" ~default:0.0;
    }
  in
  {
    workloads = List.map (fun w -> Json.get_string w "name" ~default:"") (list "workloads");
    end_to_end = List.map metric (list "end_to_end");
    per_layer = List.map metric (list "per_layer");
  }

let find t name =
  List.find_opt (fun m -> m.name = name) (t.end_to_end @ t.per_layer)
