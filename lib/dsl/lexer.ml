let is_ident_char c =
  (c >= 'a' && c <= 'z')
  || (c >= 'A' && c <= 'Z')
  || (c >= '0' && c <= '9')
  || c = '_' || c = '-' || c = '~' || c = '.'

let is_digit c = c >= '0' && c <= '9'

let tokenize input =
  let n = String.length input in
  let line = ref 1 in
  let rev_tokens = ref [] in
  let push token = rev_tokens := Token.{ token; line = !line } :: !rev_tokens in
  let rec go i =
    if i >= n then Ok ()
    else
      match input.[i] with
      | '\n' ->
        incr line;
        go (i + 1)
      | ' ' | '\t' | '\r' -> go (i + 1)
      | '#' ->
        let rec skip j = if j < n && input.[j] <> '\n' then skip (j + 1) else j in
        go (skip i)
      | '{' -> push Token.Lbrace; go (i + 1)
      | '}' -> push Token.Rbrace; go (i + 1)
      | '[' -> push Token.Lbracket; go (i + 1)
      | ']' -> push Token.Rbracket; go (i + 1)
      | ':' -> push Token.Colon; go (i + 1)
      | '>' -> push Token.Gt; go (i + 1)
      | '-' when i + 1 < n && input.[i + 1] = '>' ->
        push Token.Arrow;
        go (i + 2)
      | '"' ->
        let buf = Buffer.create 16 in
        let rec str j =
          if j >= n then Error (Printf.sprintf "line %d: unterminated string" !line)
          else
            match input.[j] with
            | '"' ->
              push (Token.String (Buffer.contents buf));
              go (j + 1)
            | '\n' -> Error (Printf.sprintf "line %d: newline in string" !line)
            | '\\' when j + 1 < n && input.[j + 1] = '"' ->
              Buffer.add_char buf '"';
              str (j + 2)
            | c ->
              Buffer.add_char buf c;
              str (j + 1)
        in
        str (i + 1)
      | c when is_digit c ->
        let rec num j = if j < n && is_digit input.[j] then num (j + 1) else j in
        let stop = num i in
        (* A digit-led word containing letters is an identifier, not a
           number followed by garbage. *)
        if stop < n && is_ident_char input.[stop] then begin
          let rec word j = if j < n && is_ident_char input.[j] then word (j + 1) else j in
          let stop = word stop in
          push (Token.Ident (String.sub input i (stop - i)));
          go stop
        end
        else begin
          match int_of_string_opt (String.sub input i (stop - i)) with
          | Some v ->
            push (Token.Int v);
            go stop
          | None -> Error (Printf.sprintf "line %d: number too large" !line)
        end
      | c when is_ident_char c ->
        let rec word j = if j < n && is_ident_char input.[j] then word (j + 1) else j in
        let stop = word i in
        push (Token.Ident (String.sub input i (stop - i)));
        go stop
      | c -> Error (Printf.sprintf "line %d: unexpected character %C" !line c)
  in
  match go 0 with
  | Error e -> Error e
  | Ok () ->
    push Token.Eof;
    Ok (List.rev !rev_tokens)
