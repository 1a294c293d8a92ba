type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(* ------------------------------------------------------------------ *)
(* Parsing: recursive descent over the input string.  [exception Fail]
   carries the offset and message; [parse] catches it into a result.  *)
(* ------------------------------------------------------------------ *)

exception Fail of int * string

let max_depth = 256

let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Fail (!pos, msg)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let skip_ws () =
    while
      !pos < n
      && match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
    do
      advance ()
    done
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> fail (Printf.sprintf "expected %C" c)
  in
  let literal word value =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then begin
      pos := !pos + l;
      value
    end
    else fail (Printf.sprintf "invalid literal (expected %s)" word)
  in
  let hex4 () =
    if !pos + 4 > n then fail "truncated \\u escape";
    let digits = String.sub s !pos 4 in
    let hex = function '0' .. '9' | 'a' .. 'f' | 'A' .. 'F' -> true | _ -> false in
    if not (String.for_all hex digits) then fail "invalid \\u escape";
    pos := !pos + 4;
    int_of_string ("0x" ^ digits)
  in
  (* [cp] is never a surrogate here, so [Uchar.of_int] cannot raise. *)
  let add_utf8 buf cp = Buffer.add_utf_8_uchar buf (Uchar.of_int cp) in
  let string_body () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      match s.[!pos] with
      | '"' ->
        advance ();
        Buffer.contents buf
      | '\\' ->
        advance ();
        if !pos >= n then fail "unterminated escape";
        let c = s.[!pos] in
        advance ();
        (match c with
        | 'u' ->
          let cp = hex4 () in
          if cp >= 0xD800 && cp <= 0xDBFF then begin
            (* high surrogate: require the low half *)
            if !pos + 2 <= n && s.[!pos] = '\\' && s.[!pos + 1] = 'u' then begin
              advance ();
              advance ();
              let lo = hex4 () in
              if lo < 0xDC00 || lo > 0xDFFF then fail "invalid surrogate pair";
              add_utf8 buf
                (0x10000 + ((cp - 0xD800) lsl 10) + (lo - 0xDC00))
            end
            else fail "unpaired surrogate"
          end
          else if cp >= 0xDC00 && cp <= 0xDFFF then fail "unpaired surrogate"
          else add_utf8 buf cp
        | '"' | '\\' | '/' -> Buffer.add_char buf c
        | 'b' -> Buffer.add_char buf '\b'
        | 'f' -> Buffer.add_char buf '\012'
        | 'n' -> Buffer.add_char buf '\n'
        | 'r' -> Buffer.add_char buf '\r'
        | 't' -> Buffer.add_char buf '\t'
        | _ -> fail "invalid escape");
        go ()
      | c when Char.code c < 0x20 -> fail "control character in string"
      | c ->
        Buffer.add_char buf c;
        advance ();
        go ()
    in
    go ()
  in
  let number () =
    let start = !pos in
    let is_float = ref false in
    if peek () = Some '-' then advance ();
    let digits () =
      let d0 = !pos in
      while
        !pos < n && match s.[!pos] with '0' .. '9' -> true | _ -> false
      do
        advance ()
      done;
      if !pos = d0 then fail "invalid number"
    in
    digits ();
    if peek () = Some '.' then begin
      is_float := true;
      advance ();
      digits ()
    end;
    (match peek () with
    | Some ('e' | 'E') ->
      is_float := true;
      advance ();
      (match peek () with Some ('+' | '-') -> advance () | _ -> ());
      digits ()
    | _ -> ());
    let text = String.sub s start (!pos - start) in
    if !is_float then Float (float_of_string text)
    else
      match int_of_string_opt text with
      | Some i -> Int i
      | None -> Float (float_of_string text)
  in
  (* The members of an object or array: [item] parses one, the opening
     bracket is at [!pos]. *)
  let sequence close item =
    advance ();
    skip_ws ();
    if peek () = Some close then begin
      advance ();
      []
    end
    else
      let rec go acc =
        let x = item () in
        skip_ws ();
        match peek () with
        | Some ',' ->
          advance ();
          go (x :: acc)
        | Some c when c = close ->
          advance ();
          List.rev (x :: acc)
        | _ -> fail (Printf.sprintf "expected ',' or %C" close)
      in
      go []
  in
  let rec value depth =
    if depth > max_depth then fail "nesting too deep";
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '{' ->
      Obj
        (sequence '}' (fun () ->
             skip_ws ();
             let key = string_body () in
             skip_ws ();
             expect ':';
             (key, value (depth + 1))))
    | Some '[' -> List (sequence ']' (fun () -> value (depth + 1)))
    | Some '"' -> String (string_body ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some ('-' | '0' .. '9') -> number ()
    | Some c -> fail (Printf.sprintf "unexpected character %C" c)
  in
  match
    let v = value 0 in
    skip_ws ();
    if !pos < n then fail "trailing bytes after document";
    v
  with
  | v -> Ok v
  | exception Fail (off, msg) ->
    Error (Printf.sprintf "%s at byte %d" msg off)

(* ------------------------------------------------------------------ *)
(* Printing                                                            *)
(* ------------------------------------------------------------------ *)

let escape_into buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\b' -> Buffer.add_string buf "\\b"
      | '\012' -> Buffer.add_string buf "\\f"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

(* One fixed float format: shortest of %.12g that is still JSON-valid
   (a bare integer mantissa gets a ".0" so it round-trips as a float). *)
let float_text f =
  if not (Float.is_finite f) then "null"
  else begin
    let s = Printf.sprintf "%.12g" f in
    if String.exists (fun c -> c = '.' || c = 'e' || c = 'E') s then s
    else s ^ ".0"
  end

let to_string v =
  let buf = Buffer.create 256 in
  let rec go = function
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (if b then "true" else "false")
    | Int i -> Buffer.add_string buf (string_of_int i)
    | Float f -> Buffer.add_string buf (float_text f)
    | String s -> escape_into buf s
    | List xs ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i x ->
          if i > 0 then Buffer.add_char buf ',';
          go x)
        xs;
      Buffer.add_char buf ']'
    | Obj members ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, x) ->
          if i > 0 then Buffer.add_char buf ',';
          escape_into buf k;
          Buffer.add_char buf ':';
          go x)
        members;
      Buffer.add_char buf '}'
  in
  go v;
  Buffer.contents buf

let rounded digits x = Float (float_of_string (Printf.sprintf "%.*f" digits x))

let to_file path v =
  let tmp = path ^ ".tmp" in
  let oc = open_out tmp in
  match
    output_string oc (to_string v);
    output_char oc '\n'
  with
  | () ->
    close_out oc;
    Sys.rename tmp path
  | exception e ->
    close_out_noerr oc;
    (try Sys.remove tmp with Sys_error _ -> ());
    raise e

(* ------------------------------------------------------------------ *)
(* Accessors                                                           *)
(* ------------------------------------------------------------------ *)

exception Type_error of string

let member key = function
  | Obj members -> List.assoc_opt key members
  | _ -> None

let wrong key kind =
  raise (Type_error (Printf.sprintf "%s must be %s" key kind))

(* [field conv kind params key]: the member converted by [conv], [None]
   when absent; a present member [conv] rejects raises [Type_error]. *)
let field conv kind params key =
  Option.map
    (fun v -> match conv v with Some x -> x | None -> wrong key kind)
    (member key params)

let get conv kind params key ~default =
  Option.value ~default (field conv kind params key)

(* The [_opt] accessors also read an explicit [null] as absent. *)
let get_opt conv kind params key =
  match member key params with
  | Some Null -> None
  | _ -> field conv kind params key

let int_of = function
  | Int i -> Some i
  | Float f when Float.is_integer f -> Some (int_of_float f)
  | _ -> None

let float_of = function
  | Float f -> Some f
  | Int i -> Some (float_of_int i)
  | _ -> None

let bool_of = function Bool b -> Some b | _ -> None
let string_of = function String s -> Some s | _ -> None
let list_of = function List xs -> Some xs | _ -> None
let get_int = get int_of "an integer"
let get_bool = get bool_of "a boolean"
let get_float = get float_of "a number"
let get_string = get string_of "a string"
let get_string_opt = get_opt string_of "a string"
let get_int_opt = get_opt int_of "an integer"
let get_list_opt = get_opt list_of "a list"
