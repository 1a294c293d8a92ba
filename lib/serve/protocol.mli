(** The serve wire protocol: line-delimited JSON request/response.

    One request per line: [{"id": ..., "method": "...", "params":
    {...}}].  [id] is echoed verbatim in the response and may be any
    JSON value (default [null]); [params] defaults to [{}].  One
    response per line, in {e request order} per connection:
    [{"id": ..., "result": ...}] on success, [{"id": ..., "error":
    {"code": "...", "message": "..."}}] on failure.  Error codes are
    stable strings, part of the protocol. *)

type request = { id : Json.t; meth : string; params : Json.t }

type error_code =
  | Parse_error  (** the line was not JSON *)
  | Invalid_request  (** JSON, but not a request object *)
  | Unknown_method
  | Invalid_params
  | Overloaded  (** admission control rejected the request *)
  | Deadline  (** the request's deadline expired mid-execution *)
  | Oversized  (** the request line exceeded the byte bound *)
  | Shutting_down  (** received after shutdown began *)
  | Internal  (** handler bug — the catch-all *)

val code_string : error_code -> string
(** The stable wire rendering, e.g. ["invalid-params"]. *)

exception Error of error_code * string
(** Raised by handlers; the dispatcher turns it into an error
    response. *)

val invalid_params : ('a, unit, string, 'b) format4 -> 'a
(** [raise (Error (Invalid_params, ...))] with a formatted message. *)

val parse_request : Json.t -> (request, string) result
(** Validate a parsed line into a request ([Error] text goes into an
    [invalid-request] response). *)

val error_member : error_code -> string -> string * Json.t
(** The ["error"] member of an error response. *)

val response_ok : id:Json.t -> Json.t -> string
(** Serialized success response line (no trailing newline). *)

val response_error : id:Json.t -> error_code -> string -> string
(** Serialized error response line (no trailing newline). *)
