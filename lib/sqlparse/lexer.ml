(** Hand-written SQL lexer.

    Produces a token list for the recursive-descent {!Parser}. Keywords
    are case-insensitive; identifiers are lower-cased (the IR uses
    lower-case names throughout). String literals use single quotes with
    [''] escaping, Oracle style.

    Each word is lower-cased once and looked up in one hashed keyword
    table. The lexer keeps no state between calls, so domains may
    tokenize concurrently. *)

type token =
  | IDENT of string
  | INT of int
  | FLOAT of float
  | STRING of string
  | KW of string  (** upper-cased keyword *)
  | LPAREN
  | RPAREN
  | COMMA
  | DOT
  | STAR
  | PLUS
  | MINUS
  | SLASH
  | EQ
  | NE
  | LT
  | LE
  | GT
  | GE
  | BIND of int  (** [:n] positional bind marker, 1-based in the text *)
  | EOF

exception Lex_error of string * int  (** message, position *)

let keywords =
  [
    "SELECT"; "DISTINCT"; "FROM"; "WHERE"; "GROUP"; "BY"; "HAVING"; "ORDER";
    "ASC"; "DESC"; "AND"; "OR"; "NOT"; "IN"; "EXISTS"; "BETWEEN"; "IS";
    "NULL"; "LIKE"; "AS"; "ON"; "JOIN"; "LEFT"; "RIGHT"; "INNER"; "OUTER";
    "UNION"; "ALL"; "INTERSECT"; "MINUS"; "ANY"; "SOME"; "CASE"; "WHEN";
    "THEN"; "ELSE"; "END"; "COUNT"; "SUM"; "AVG"; "MIN"; "MAX"; "OVER";
    "PARTITION"; "ROWNUM"; "TRUE"; "FALSE"; "DATE"; "CROSS"; "SEMI"; "ANTI";
  ]

module Kw_table = Hashtbl.Make (String)

(* lower-case spelling -> the shared upper-case keyword string. Filled
   here, at module initialisation, and only read afterwards, so every
   domain may read it without a lock (no [Lazy]: racing forces raise
   [Lazy.Undefined]). *)
let keyword_table : string Kw_table.t =
  let t = Kw_table.create 64 in
  List.iter (fun k -> Kw_table.replace t (String.lowercase_ascii k) k) keywords;
  t

let is_keyword s = Kw_table.mem keyword_table (String.lowercase_ascii s)

let is_ident_start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
let is_ident_char c = is_ident_start c || (c >= '0' && c <= '9') || c = '$'
let is_digit c = c >= '0' && c <= '9'

let tokenize (src : string) : (token * int) list =
  let n = String.length src in
  let toks = ref [] in
  let emit t pos = toks := (t, pos) :: !toks in
  let int_at i j pos =
    match int_of_string_opt (String.sub src i (j - i)) with
    | Some v -> v
    | None -> raise (Lex_error ("number out of range", pos))
  in
  let i = ref 0 in
  while !i < n do
    let c = src.[!i] in
    let pos = !i in
    if c = ' ' || c = '\t' || c = '\n' || c = '\r' then incr i
    else if c = '-' && !i + 1 < n && src.[!i + 1] = '-' then (
      (* line comment *)
      while !i < n && src.[!i] <> '\n' do
        incr i
      done)
    else if is_digit c then (
      let j = ref !i in
      while !j < n && is_digit src.[!j] do
        incr j
      done;
      if !j < n && src.[!j] = '.' && !j + 1 < n && is_digit src.[!j + 1] then (
        incr j;
        while !j < n && is_digit src.[!j] do
          incr j
        done;
        emit (FLOAT (float_of_string (String.sub src !i (!j - !i)))) pos)
      else emit (INT (int_at !i !j pos)) pos;
      i := !j)
    else if is_ident_start c then (
      let j = ref !i in
      while !j < n && is_ident_char src.[!j] do
        incr j
      done;
      let start = !i in
      let word = String.init (!j - start) (fun k -> Char.lowercase_ascii src.[start + k]) in
      (match Kw_table.find_opt keyword_table word with
      | Some kw -> emit (KW kw) pos
      | None -> emit (IDENT word) pos);
      i := !j)
    else if c = '\'' then (
      let buf = Buffer.create 16 in
      let j = ref (!i + 1) in
      let closed = ref false in
      while (not !closed) && !j < n do
        if src.[!j] = '\'' then
          if !j + 1 < n && src.[!j + 1] = '\'' then (
            Buffer.add_char buf '\'';
            j := !j + 2)
          else (
            closed := true;
            incr j)
        else (
          Buffer.add_char buf src.[!j];
          incr j)
      done;
      if not !closed then raise (Lex_error ("unterminated string literal", pos));
      emit (STRING (Buffer.contents buf)) pos;
      i := !j)
    else (
      let next = if !i + 1 < n then src.[!i + 1] else ' ' in
      match (c, next) with
      | '<', '>' | '!', '=' ->
          emit NE pos;
          i := !i + 2
      | '<', '=' ->
          emit LE pos;
          i := !i + 2
      | '>', '=' ->
          emit GE pos;
          i := !i + 2
      | _ -> (
          incr i;
          match c with
          | '(' -> emit LPAREN pos
          | ')' -> emit RPAREN pos
          | ',' -> emit COMMA pos
          | '.' -> emit DOT pos
          | '*' -> emit STAR pos
          | '+' -> emit PLUS pos
          | '-' -> emit MINUS pos
          | '/' -> emit SLASH pos
          | '=' -> emit EQ pos
          | '<' -> emit LT pos
          | '>' -> emit GT pos
          | ':' ->
              let j = ref !i in
              while !j < n && is_digit src.[!j] do
                incr j
              done;
              if !j = !i then
                raise (Lex_error ("expected bind position after ':'", pos));
              emit (BIND (int_at !i !j pos)) pos;
              i := !j
          | c -> raise (Lex_error (Printf.sprintf "unexpected character %c" c, pos))))
  done;
  List.rev ((EOF, n) :: !toks)

let token_str = function
  | IDENT s -> Printf.sprintf "identifier %S" s
  | INT n -> string_of_int n
  | FLOAT f -> string_of_float f
  | STRING s -> Printf.sprintf "'%s'" s
  | KW k -> k
  | LPAREN -> "("
  | RPAREN -> ")"
  | COMMA -> ","
  | DOT -> "."
  | STAR -> "*"
  | PLUS -> "+"
  | MINUS -> "-"
  | SLASH -> "/"
  | EQ -> "="
  | NE -> "<>"
  | LT -> "<"
  | LE -> "<="
  | GT -> ">"
  | GE -> ">="
  | BIND n -> Printf.sprintf ":%d" n
  | EOF -> "<eof>"
