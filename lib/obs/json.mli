(** The one JSON codec of hwpat: the value type, a strict parser and a
    deterministic printer, with zero dependencies.  Every JSON document
    the libraries and the CLI write — trace and metrics exports,
    campaign summaries, checkpoint journals, serve replies — is built
    as a {!t} and printed by {!to_string}, so string escaping and float
    formatting exist in exactly one place.

    Determinism contract: {!to_string} is a pure function of the value
    — object members print in the order held in the [Obj] list, floats
    print through one fixed format — so a document built from the same
    data serializes to the same bytes.  The cached-vs-fresh
    byte-identity guarantee of the serve cache and the jobs/lanes/resume
    byte-identity of campaign summaries rest on this. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val parse : string -> (t, string) result
(** Strict RFC-8259 parse of one document (surrounding whitespace
    allowed, trailing bytes rejected).  Numbers without [.], [e] or
    [E] that fit an OCaml [int] parse as [Int], everything else as
    [Float].  [\uXXXX] escapes decode to UTF-8 (surrogate pairs
    handled).  Nesting is capped (guards the daemon against
    stack-smashing inputs); errors name the byte offset. *)

val to_string : t -> string
(** Compact rendering ([,] and [:] separators, no whitespace).
    Strings escape the double quote, the backslash and every control
    byte; other bytes pass through unchanged.  Floats print as
    [%.12g] (with [.0] added to a bare integer); non-finite floats
    render as [null]. *)

val rounded : int -> float -> t
(** [Float x] rounded to that many decimals, exactly as [%.*f] prints
    it: for fields whose precision is part of an output format. *)

val to_file : string -> t -> unit
(** [to_file path v] writes [to_string v] and a newline to a temporary
    file renamed over [path], so [path] only ever holds a complete
    document. *)

val member : string -> t -> t option
(** Object member lookup; [None] on non-objects. *)

(** {1 Typed accessors for request parameters}

    Each takes [(params, key)] and returns the default when the key is
    absent or the params are not an object; a present member of the
    wrong type raises {!Type_error} — the dispatcher maps it to an
    [invalid-params] error response naming the key. *)

exception Type_error of string

val get_int : t -> string -> default:int -> int
(** Accepts [Int]; also [Float] with an integral value. *)

val get_bool : t -> string -> default:bool -> bool
val get_float : t -> string -> default:float -> float
val get_string : t -> string -> default:string -> string

val get_string_opt : t -> string -> string option
val get_int_opt : t -> string -> int option
val get_list_opt : t -> string -> t list option
