type t =
  | Element of element
  | Text of string

and element = {
  tag : string;
  attrs : (string * string) list;
  children : t list;
}

let element ?(attrs = []) ?(children = []) tag = Element { tag; attrs; children }
let text s = Text s
let cdata_text s = Text s

let tag = function Element e -> e.tag | Text _ -> ""

let local_name name =
  match String.index_opt name ':' with
  | None -> name
  | Some i -> String.sub name (i + 1) (String.length name - i - 1)

let prefix name =
  match String.index_opt name ':' with
  | None -> None
  | Some i -> Some (String.sub name 0 i)

let attr node name =
  match node with
  | Text _ -> None
  | Element e -> List.assoc_opt name e.attrs

let attr_exn node name =
  match attr node name with Some v -> v | None -> raise Not_found

let set_attr node name value =
  match node with
  | Text _ -> node
  | Element e ->
    let attrs = List.remove_assoc name e.attrs @ [ (name, value) ] in
    Element { e with attrs }

let children = function Element e -> e.children | Text _ -> []

let child_elements node =
  List.filter_map (function Element e -> Some e | Text _ -> None) (children node)

let find_children node name =
  let want = local_name name in
  List.filter
    (function Element e -> local_name e.tag = want | Text _ -> false)
    (children node)

let find_child node name =
  match find_children node name with [] -> None | n :: _ -> Some n

let rec text_content node =
  match node with
  | Text s | Element { children = [ Text s ]; _ } -> s
  | Element { children = []; _ } -> ""
  | Element e -> String.concat "" (List.map text_content e.children)

let is_element = function Element _ -> true | Text _ -> false

(* ------------------------------------------------------------------ *)
(* Printing                                                            *)
(* ------------------------------------------------------------------ *)

(* Append [s] escaped; clean stretches go in with one blit each, so a
   string with none of the five special characters is appended as is. *)
let add_escaped buf s =
  let n = String.length s in
  let start = ref 0 in
  for i = 0 to n - 1 do
    match String.unsafe_get s i with
    | ('&' | '<' | '>' | '"' | '\'') as c ->
      Buffer.add_substring buf s !start (i - !start);
      Buffer.add_string buf
        (match c with
        | '&' -> "&amp;"
        | '<' -> "&lt;"
        | '>' -> "&gt;"
        | '"' -> "&quot;"
        | _ -> "&apos;");
      start := i + 1
    | _ -> ()
  done;
  Buffer.add_substring buf s !start (n - !start)

let escape s =
  let buf = Buffer.create (String.length s + 8) in
  add_escaped buf s;
  Buffer.contents buf

let print_attrs buf attrs =
  List.iter
    (fun (k, v) ->
      Buffer.add_char buf ' ';
      Buffer.add_string buf k;
      Buffer.add_string buf "=\"";
      add_escaped buf v;
      Buffer.add_char buf '"')
    attrs

let rec print_compact buf node =
  match node with
  | Text s -> add_escaped buf s
  | Element e ->
    Buffer.add_char buf '<';
    Buffer.add_string buf e.tag;
    print_attrs buf e.attrs;
    if e.children = [] then Buffer.add_string buf "/>"
    else begin
      Buffer.add_char buf '>';
      List.iter (print_compact buf) e.children;
      Buffer.add_string buf "</";
      Buffer.add_string buf e.tag;
      Buffer.add_char buf '>'
    end

let to_string node =
  let buf = Buffer.create 256 in
  print_compact buf node;
  Buffer.contents buf

let to_pretty_string node =
  let buf = Buffer.create 256 in
  let pad level = Buffer.add_string buf (String.make (level * 2) ' ') in
  let rec go level node =
    match node with
    | Text s ->
      pad level;
      add_escaped buf s;
      Buffer.add_char buf '\n'
    | Element e ->
      pad level;
      Buffer.add_char buf '<';
      Buffer.add_string buf e.tag;
      print_attrs buf e.attrs;
      (match e.children with
      | [] -> Buffer.add_string buf "/>\n"
      | [ Text s ] ->
        Buffer.add_char buf '>';
        add_escaped buf s;
        Buffer.add_string buf "</";
        Buffer.add_string buf e.tag;
        Buffer.add_string buf ">\n"
      | kids ->
        Buffer.add_string buf ">\n";
        List.iter (go (level + 1)) kids;
        pad level;
        Buffer.add_string buf "</";
        Buffer.add_string buf e.tag;
        Buffer.add_string buf ">\n")
  in
  go 0 node;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Canonical form                                                      *)
(* ------------------------------------------------------------------ *)

let is_blank s =
  let n = String.length s in
  let rec go i = i >= n || ((s.[i] = ' ' || s.[i] = '\t' || s.[i] = '\n' || s.[i] = '\r') && go (i + 1)) in
  go 0

let rec canonical node =
  match node with
  | Text s -> Text s
  | Element e ->
    let attrs = List.sort (fun (a, _) (b, _) -> compare a b) e.attrs in
    let kids = List.map canonical e.children in
    (* Merge adjacent text nodes, drop whitespace-only ones. *)
    let merged =
      List.fold_left
        (fun acc k ->
          match (k, acc) with
          | Text s, _ when is_blank s -> acc
          | Text s, Text p :: rest -> Text (p ^ s) :: rest
          | k, acc -> k :: acc)
        [] kids
      |> List.rev
    in
    Element { e with attrs; children = merged }

let canonical_string node = to_string (canonical node)

let equal a b = canonical a = canonical b

let rec size = function
  | Text _ -> 1
  | Element e -> 1 + List.fold_left (fun acc k -> acc + size k) 0 e.children

let rec depth = function
  | Text _ -> 0
  | Element e -> 1 + List.fold_left (fun acc k -> max acc (depth k)) 0 e.children

(* ------------------------------------------------------------------ *)
(* Parsing                                                             *)
(* ------------------------------------------------------------------ *)

exception Parse_error of { line : int; column : int; message : string }

(* A single pass by index over [src].  Text runs and attribute values are
   cut out with one [String.sub] each; [buf] is used only when an entity,
   a CDATA section, a comment or a processing instruction splits a run,
   and is empty again whenever an element starts. *)
type parser_state = { src : string; len : int; mutable pos : int; buf : Buffer.t }

(* Line and column of [pos]: every character before it has been consumed,
   so the line is one plus the newlines before it. *)
let fail st message =
  let line = ref 1 and bol = ref 0 in
  for i = 0 to st.pos - 1 do
    if String.unsafe_get st.src i = '\n' then begin
      incr line;
      bol := i + 1
    end
  done;
  raise (Parse_error { line = !line; column = st.pos - !bol + 1; message })

let at_end st = st.pos >= st.len

(* Whether [s] occurs in [src] at index [i], compared in place.  The
   scanning functions below are loops or top-level recursions, never local
   closures, so that scanning allocates nothing. *)
let matches_at st i s =
  let n = String.length s in
  i + n <= st.len
  &&
  let k = ref 0 in
  while !k < n && String.unsafe_get st.src (i + !k) = String.unsafe_get s !k do
    incr k
  done;
  !k = n

let looking_at st s = matches_at st st.pos s

let expect st s =
  if looking_at st s then st.pos <- st.pos + String.length s
  else fail st (Printf.sprintf "expected %S" s)

let is_ws = function ' ' | '\t' | '\n' | '\r' -> true | _ -> false

let skip_ws st =
  let p = ref st.pos in
  while !p < st.len && is_ws (String.unsafe_get st.src !p) do
    incr p
  done;
  st.pos <- !p

let is_name_char c =
  (c >= 'a' && c <= 'z')
  || (c >= 'A' && c <= 'Z')
  || (c >= '0' && c <= '9')
  || c = '_' || c = '-' || c = '.' || c = ':'

(* Advance over a name and return where it started. *)
let scan_name st =
  let start = st.pos in
  let p = ref start in
  while !p < st.len && is_name_char (String.unsafe_get st.src !p) do
    incr p
  done;
  st.pos <- !p;
  if !p = start then fail st "expected a name";
  start

let parse_name st =
  let start = scan_name st in
  String.sub st.src start (st.pos - start)

let utf8_of_code buf code =
  (* Encode a Unicode scalar value as UTF-8. *)
  if code < 0x80 then Buffer.add_char buf (Char.chr code)
  else if code < 0x800 then begin
    Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
    Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
  end
  else if code < 0x10000 then begin
    Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
    Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
  end
  else begin
    Buffer.add_char buf (Char.chr (0xF0 lor (code lsr 18)));
    Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 12) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
  end

let parse_entity st =
  (* Called with st.pos on '&'; appends the decoded character to st.buf. *)
  let start = st.pos + 1 in
  let semi =
    match String.index_from_opt st.src start ';' with
    | Some semi -> semi
    | None ->
      st.pos <- st.len;
      fail st "unterminated entity reference"
  in
  st.pos <- semi + 1;
  let buf = st.buf in
  match String.sub st.src start (semi - start) with
  | "lt" -> Buffer.add_char buf '<'
  | "gt" -> Buffer.add_char buf '>'
  | "amp" -> Buffer.add_char buf '&'
  | "quot" -> Buffer.add_char buf '"'
  | "apos" -> Buffer.add_char buf '\''
  | name ->
    if String.length name > 1 && name.[0] = '#' then begin
      let code =
        try
          if name.[1] = 'x' || name.[1] = 'X' then
            int_of_string ("0x" ^ String.sub name 2 (String.length name - 2))
          else int_of_string (String.sub name 1 (String.length name - 1))
        with _ -> fail st (Printf.sprintf "bad character reference &%s;" name)
      in
      if code < 0 || code > 0x10FFFF then fail st "character reference out of range";
      utf8_of_code buf code
    end
    else fail st (Printf.sprintf "unknown entity &%s;" name)

(* Move the raw run [start, st.pos) into st.buf, ahead of whatever splits it. *)
let spill st start = Buffer.add_substring st.buf st.src start (st.pos - start)

(* The text gathered since [start]: a plain slice when nothing split the
   run, else the buffered pieces plus the last run.  Leaves st.buf empty. *)
let take_run st start =
  if Buffer.length st.buf = 0 then String.sub st.src start (st.pos - start)
  else begin
    spill st start;
    let s = Buffer.contents st.buf in
    Buffer.clear st.buf;
    s
  end

(* Advance over characters other than [stop] and ['&']. *)
let skip_plain st stop =
  let p = ref st.pos in
  while
    !p < st.len
    &&
    let c = String.unsafe_get st.src !p in
    c <> stop && c <> '&'
  do
    incr p
  done;
  st.pos <- !p

let rec attr_value st quote start =
  skip_plain st quote;
  if at_end st then fail st "unterminated attribute value"
  else if String.unsafe_get st.src st.pos = quote then begin
    let value = take_run st start in
    st.pos <- st.pos + 1;
    value
  end
  else begin
    spill st start;
    parse_entity st;
    attr_value st quote st.pos
  end

let parse_attr_value st =
  let quote =
    if st.pos < st.len && (st.src.[st.pos] = '"' || st.src.[st.pos] = '\'') then st.src.[st.pos]
    else fail st "expected a quoted attribute value"
  in
  st.pos <- st.pos + 1;
  attr_value st quote st.pos

(* Index just past the first [closing] at or after [i], or -1. *)
let rec index_after st i closing =
  if i + String.length closing > st.len then -1
  else if matches_at st i closing then i + String.length closing
  else index_after st (i + 1) closing

let skip_until st closing =
  match index_after st st.pos closing with
  | -1 ->
    st.pos <- st.len;
    fail st (Printf.sprintf "unterminated construct, expected %S" closing)
  | after -> st.pos <- after

let rec skip_misc st =
  skip_ws st;
  if looking_at st "<?" then begin
    skip_until st "?>";
    skip_misc st
  end
  else if looking_at st "<!--" then begin
    skip_until st "-->";
    skip_misc st
  end
  else if looking_at st "<!DOCTYPE" then begin
    (* Skip to the matching '>' (internal subsets with nested brackets are
       out of scope for this subset). *)
    skip_until st ">";
    skip_misc st
  end

let rec has_attr name = function
  | [] -> false
  | (k, _) :: rest -> String.equal k name || has_attr name rest

(* Close the text run that began at [start], if it holds anything. *)
let flush st acc start =
  if st.pos = start && Buffer.length st.buf = 0 then acc else Text (take_run st start) :: acc

(* Called with st.pos on '<'. *)
let rec parse_element st =
  st.pos <- st.pos + 1;
  let tag = parse_name st in
  parse_attrs st tag []

and parse_attrs st tag acc =
  skip_ws st;
  (* At the end, NUL takes the "malformed start tag" branch. *)
  let c = if at_end st then '\000' else String.unsafe_get st.src st.pos in
  if c = '/' then begin
    st.pos <- st.pos + 1;
    expect st ">";
    Element { tag; attrs = List.rev acc; children = [] }
  end
  else if c = '>' then begin
    st.pos <- st.pos + 1;
    let children = parse_content st tag [] st.pos in
    Element { tag; attrs = List.rev acc; children }
  end
  else if is_name_char c then begin
    let name = parse_name st in
    skip_ws st;
    expect st "=";
    skip_ws st;
    let value = parse_attr_value st in
    if has_attr name acc then fail st (Printf.sprintf "duplicate attribute %s" name);
    parse_attrs st tag ((name, value) :: acc)
  end
  else fail st "malformed start tag"

(* Children of [tag] up to its closing tag.  [start] is where the current
   raw text run began: text split by comments, CDATA, processing
   instructions and entities merges into one [Text] node, closed only when
   an element starts or [tag] closes. *)
and parse_content st tag acc start =
  skip_plain st '<';
  if at_end st then fail st (Printf.sprintf "unterminated element <%s>" tag)
  else if String.unsafe_get st.src st.pos = '&' then begin
    spill st start;
    parse_entity st;
    parse_content st tag acc st.pos
  end
  else
    (* On '<': the next character tells a closing tag, a comment or CDATA,
       and a processing instruction apart from a child element. *)
    let next = if st.pos + 1 < st.len then String.unsafe_get st.src (st.pos + 1) else '\000' in
    if next = '/' then begin
      let acc = flush st acc start in
      st.pos <- st.pos + 2;
      let name_start = scan_name st in
      let n = st.pos - name_start in
      if n <> String.length tag || not (matches_at st name_start tag) then
        fail st
          (Printf.sprintf "mismatched closing tag </%s> (expected </%s>)"
             (String.sub st.src name_start n) tag);
      skip_ws st;
      expect st ">";
      List.rev acc
    end
    else if next = '!' && looking_at st "<!--" then begin
      spill st start;
      skip_until st "-->";
      parse_content st tag acc st.pos
    end
    else if next = '!' && looking_at st "<![CDATA[" then begin
      spill st start;
      let body = st.pos + 9 in
      (match index_after st body "]]>" with
      | -1 ->
        st.pos <- st.len;
        fail st "unterminated CDATA section"
      | after ->
        Buffer.add_substring st.buf st.src body (after - 3 - body);
        st.pos <- after);
      parse_content st tag acc st.pos
    end
    else if next = '?' then begin
      spill st start;
      skip_until st "?>";
      parse_content st tag acc st.pos
    end
    else begin
      let acc = flush st acc start in
      let child = parse_element st in
      parse_content st tag (child :: acc) st.pos
    end

let of_string src =
  let st = { src; len = String.length src; pos = 0; buf = Buffer.create 64 } in
  skip_misc st;
  if at_end st || src.[st.pos] <> '<' then fail st "expected a root element";
  let root = parse_element st in
  skip_misc st;
  if not (at_end st) then fail st "trailing content after the root element";
  root

let of_string_opt src = try Some (of_string src) with Parse_error _ -> None

let parse_error_to_string = function
  | Parse_error { line; column; message } ->
    Some (Printf.sprintf "XML parse error at line %d, column %d: %s" line column message)
  | _ -> None
