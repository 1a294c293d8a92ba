type request = { id : Json.t; meth : string; params : Json.t }

type error_code =
  | Parse_error
  | Invalid_request
  | Unknown_method
  | Invalid_params
  | Overloaded
  | Deadline
  | Oversized
  | Shutting_down
  | Internal

let code_string = function
  | Parse_error -> "parse-error"
  | Invalid_request -> "invalid-request"
  | Unknown_method -> "unknown-method"
  | Invalid_params -> "invalid-params"
  | Overloaded -> "overloaded"
  | Deadline -> "deadline"
  | Oversized -> "oversized"
  | Shutting_down -> "shutting-down"
  | Internal -> "internal"

exception Error of error_code * string

let invalid_params fmt =
  Printf.ksprintf (fun msg -> raise (Error (Invalid_params, msg))) fmt

let parse_request json =
  match json with
  | Json.Obj members ->
    let unknown =
      List.find_opt
        (fun (k, _) -> k <> "id" && k <> "method" && k <> "params")
        members
    in
    (match unknown with
    | Some (k, _) -> Result.Error (Printf.sprintf "unknown request field %S" k)
    | None -> (
      match Json.member "method" json with
      | Some (Json.String meth) when meth <> "" -> (
        let id = Option.value (Json.member "id" json) ~default:Json.Null in
        match Json.member "params" json with
        | None -> Result.Ok { id; meth; params = Json.Obj [] }
        | Some (Json.Obj _ as p) -> Result.Ok { id; meth; params = p }
        | Some _ -> Result.Error "params must be an object")
      | Some _ -> Result.Error "method must be a non-empty string"
      | None -> Result.Error "missing method"))
  | _ -> Result.Error "request must be a JSON object"

let response_ok ~id result =
  Json.to_string (Json.Obj [ ("id", id); ("result", result) ])

let error_member code message =
  ( "error",
    Json.Obj
      [ ("code", Json.String (code_string code)); ("message", Json.String message) ]
  )

let response_error ~id code message =
  Json.to_string (Json.Obj [ ("id", id); error_member code message ])
