type t = {
  tag : string;
  quiet : bool;
  mutable checks : (string * bool * string) list;  (* newest first *)
}

let create ?(quiet = false) tag = { tag; quiet; checks = [] }

let check g name ok detail =
  if not g.quiet then
    Printf.printf "%s CHECK %s: %s (%s)\n" g.tag name (if ok then "PASS" else "FAIL") detail;
  g.checks <- (name, ok, detail) :: g.checks

let failures g =
  List.filter_map
    (fun (name, ok, detail) ->
      if ok then None else Some (Printf.sprintf "%s %s (%s)" g.tag name detail))
    (List.rev g.checks)

let exit_code g = if failures g = [] then 0 else 1
