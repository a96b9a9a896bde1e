(* Tests for dacs_xml: parser, printer, canonical form, path queries. *)

module Xml = Dacs_xml.Xml
module Xml_path = Dacs_xml.Xml_path
module Context = Dacs_policy.Context
module Value = Dacs_policy.Value
module Decision = Dacs_policy.Decision
module Obligation = Dacs_policy.Obligation
module Wire = Dacs_core.Wire
module Soap = Dacs_ws.Soap

let check = Alcotest.check
let string_ = Alcotest.string
let bool_ = Alcotest.bool
let int_ = Alcotest.int

let xml_testable = Alcotest.testable (fun fmt t -> Format.pp_print_string fmt (Xml.to_string t)) Xml.equal

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  nn = 0 || go 0

(* --- construction and accessors ------------------------------------- *)

let test_element_basics () =
  let e = Xml.element "Policy" ~attrs:[ ("PolicyId", "p1") ] ~children:[ Xml.text "hi" ] in
  check string_ "tag" "Policy" (Xml.tag e);
  check (Alcotest.option string_) "attr" (Some "p1") (Xml.attr e "PolicyId");
  check (Alcotest.option string_) "missing attr" None (Xml.attr e "nope");
  check string_ "text content" "hi" (Xml.text_content e)

let test_local_name_prefix () =
  check string_ "local" "Assertion" (Xml.local_name "saml:Assertion");
  check string_ "no prefix" "Policy" (Xml.local_name "Policy");
  check (Alcotest.option string_) "prefix" (Some "saml") (Xml.prefix "saml:Assertion");
  check (Alcotest.option string_) "no prefix" None (Xml.prefix "Policy")

let test_set_attr () =
  let e = Xml.element "A" ~attrs:[ ("x", "1") ] in
  let e' = Xml.set_attr e "x" "2" in
  check (Alcotest.option string_) "updated" (Some "2") (Xml.attr e' "x");
  let e'' = Xml.set_attr e "y" "3" in
  check (Alcotest.option string_) "added" (Some "3") (Xml.attr e'' "y");
  check (Alcotest.option string_) "original untouched" (Some "1") (Xml.attr e "x")

let test_find_children () =
  let doc =
    Xml.element "Root"
      ~children:
        [
          Xml.element "xacml:Rule" ~attrs:[ ("RuleId", "r1") ];
          Xml.text "noise";
          Xml.element "Rule" ~attrs:[ ("RuleId", "r2") ];
          Xml.element "Other";
        ]
  in
  check int_ "find_children matches on local name" 2 (List.length (Xml.find_children doc "Rule"));
  match Xml.find_child doc "Rule" with
  | Some r -> check (Alcotest.option string_) "first" (Some "r1") (Xml.attr r "RuleId")
  | None -> Alcotest.fail "expected a Rule child"

(* --- escaping -------------------------------------------------------- *)

let test_escape () =
  check string_ "all specials" "&amp;&lt;&gt;&quot;&apos;" (Xml.escape "&<>\"'");
  check string_ "plain" "hello" (Xml.escape "hello")

let test_escape_roundtrip_via_parse () =
  let nasty = "a & b < c > d \"quoted\" 'single'" in
  let doc = Xml.element "T" ~attrs:[ ("v", nasty) ] ~children:[ Xml.text nasty ] in
  let parsed = Xml.of_string (Xml.to_string doc) in
  check (Alcotest.option string_) "attr roundtrip" (Some nasty) (Xml.attr parsed "v");
  check string_ "text roundtrip" nasty (Xml.text_content parsed)

(* --- parsing --------------------------------------------------------- *)

let test_parse_simple () =
  let doc = Xml.of_string "<a x=\"1\"><b>hi</b><c/></a>" in
  check string_ "root" "a" (Xml.tag doc);
  check int_ "children" 2 (List.length (Xml.children doc));
  check (Alcotest.option string_) "b text" (Some "hi")
    (Option.map Xml.text_content (Xml.find_child doc "b"))

let test_parse_prolog_doctype_comments () =
  let src =
    "<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n<!DOCTYPE note>\n<!-- a comment -->\n<note><!-- inner -->body</note>\n"
  in
  let doc = Xml.of_string src in
  check string_ "root" "note" (Xml.tag doc);
  check string_ "text" "body" (Xml.text_content doc)

let test_parse_cdata () =
  let doc = Xml.of_string "<d><![CDATA[<not>&parsed;]]></d>" in
  check string_ "cdata" "<not>&parsed;" (Xml.text_content doc)

let test_parse_entities () =
  let doc = Xml.of_string "<d>&lt;&gt;&amp;&quot;&apos;&#65;&#x42;</d>" in
  check string_ "entities" "<>&\"'AB" (Xml.text_content doc)

let test_parse_numeric_utf8 () =
  (* U+00E9 (é) is two UTF-8 bytes; U+4E2D is three. *)
  let doc = Xml.of_string "<d>&#233;&#x4E2D;</d>" in
  check string_ "utf8" "\xC3\xA9\xE4\xB8\xAD" (Xml.text_content doc)

let test_parse_errors () =
  let bad src =
    match Xml.of_string_opt src with
    | None -> ()
    | Some _ -> Alcotest.fail (Printf.sprintf "expected a parse error for %S" src)
  in
  bad "";
  bad "<a>";
  bad "<a></b>";
  bad "<a x=1></a>";
  bad "<a x=\"1\" x=\"2\"></a>";
  bad "<a>&bogus;</a>";
  bad "<a></a><b></b>";
  bad "text only"

let test_parse_error_position () =
  match Xml.of_string_opt "<a>\n<b></c>\n</a>" with
  | Some _ -> Alcotest.fail "expected failure"
  | None -> (
    try ignore (Xml.of_string "<a>\n<b></c>\n</a>") with
    | Xml.Parse_error { line; _ } -> check int_ "line" 2 line
    | e -> raise e)

let test_mismatched_tag_message () =
  try
    ignore (Xml.of_string "<a></b>");
    Alcotest.fail "expected failure"
  with e -> (
    match Xml.parse_error_to_string e with
    | Some msg -> check bool_ "mentions tags" true (contains msg "</b>")
    | None -> Alcotest.fail "expected a Parse_error")

(* --- canonical form --------------------------------------------------- *)

let test_canonical_sorts_attrs () =
  let a = Xml.of_string "<a z=\"1\" b=\"2\" m=\"3\"/>" in
  check string_ "sorted" "<a b=\"2\" m=\"3\" z=\"1\"/>" (Xml.canonical_string a)

let test_canonical_drops_blank_text () =
  let a = Xml.of_string "<a>\n  <b/>\n  <c/>\n</a>" in
  check string_ "no blanks" "<a><b/><c/></a>" (Xml.canonical_string a)

let test_canonical_merges_text () =
  let a = Xml.element "a" ~children:[ Xml.text "x"; Xml.text "y" ] in
  check string_ "merged" "<a>xy</a>" (Xml.canonical_string a)

let test_canonical_idempotent () =
  let a = Xml.of_string "<a z=\"1\" b=\"2\">  <c>t</c>  </a>" in
  check xml_testable "idempotent" (Xml.canonical a) (Xml.canonical (Xml.canonical a))

let test_equal_modulo_whitespace () =
  let a = Xml.of_string "<a x=\"1\" y=\"2\"><b>t</b></a>" in
  let b = Xml.of_string "<a y=\"2\" x=\"1\">\n  <b>t</b>\n</a>" in
  check bool_ "equal" true (Xml.equal a b)

(* --- size / depth ------------------------------------------------------ *)

let test_size_depth () =
  let a = Xml.of_string "<a><b><c/></b><d/>x</a>" in
  check int_ "size" 5 (Xml.size a);
  check int_ "depth" 3 (Xml.depth a);
  check int_ "leaf depth" 1 (Xml.depth (Xml.element "x"))

(* --- pretty printing ---------------------------------------------------- *)

let test_pretty_parses_back () =
  let a = Xml.of_string "<a x=\"1\"><b>text</b><c><d/></c></a>" in
  let pretty = Xml.to_pretty_string a in
  check bool_ "pretty equal" true (Xml.equal a (Xml.of_string pretty))

(* --- paths -------------------------------------------------------------- *)

let sample =
  Xml.of_string
    "<PolicySet><Policy PolicyId=\"p1\"><Rule RuleId=\"r1\" Effect=\"Permit\"/><Rule RuleId=\"r2\" Effect=\"Deny\"/></Policy><Policy PolicyId=\"p2\"><Rule RuleId=\"r3\" Effect=\"Permit\"/></Policy></PolicySet>"

let test_path_select () =
  check int_ "all rules" 3 (List.length (Xml_path.select sample "Policy/Rule"));
  check int_ "wildcard" 3 (List.length (Xml_path.select sample "*/Rule"));
  check int_ "policies" 2 (List.length (Xml_path.select sample "Policy"))

let test_path_attr_pred () =
  let permits = Xml_path.select sample "Policy/Rule[@Effect=Permit]" in
  check int_ "permit rules" 2 (List.length permits);
  check (Alcotest.option string_) "by id" (Some "r2")
    (Xml_path.select_attr sample "Policy/Rule[@Effect=Deny]" "RuleId")

let test_path_quoted_pred () =
  check (Alcotest.option string_) "quoted value" (Some "r2")
    (Xml_path.select_attr sample "Policy/Rule[@Effect='Deny']" "RuleId")

let test_path_index () =
  check (Alcotest.option string_) "second policy" (Some "p2")
    (Xml_path.select_attr sample "Policy[2]" "PolicyId");
  check int_ "out of range" 0 (List.length (Xml_path.select sample "Policy[9]"))

let test_path_text () =
  let doc = Xml.of_string "<a><b>hello</b></a>" in
  check (Alcotest.option string_) "text" (Some "hello") (Xml_path.select_text doc "b")

let test_path_exists () =
  check bool_ "exists" true (Xml_path.exists sample "Policy/Rule");
  check bool_ "not exists" false (Xml_path.exists sample "Policy/Nope")

let test_path_errors () =
  let bad p =
    try
      ignore (Xml_path.select sample p);
      Alcotest.fail (Printf.sprintf "expected Bad_path for %S" p)
    with Xml_path.Bad_path _ -> ()
  in
  bad "";
  bad "a//b";
  bad "a[b]";
  bad "a[@x]";
  bad "a[0]"

(* --- property tests -------------------------------------------------------- *)

let gen_xml =
  let open QCheck.Gen in
  let tag_gen = oneofl [ "a"; "b"; "c"; "Policy"; "Rule"; "ns:Elt" ] in
  let text_gen = map (fun s -> Xml.text (String.concat "" [ "t"; s ])) (string_size ~gen:printable (0 -- 8)) in
  let attr_gen = pair (oneofl [ "x"; "y"; "id" ]) (string_size ~gen:printable (0 -- 6)) in
  let rec node depth =
    if depth = 0 then text_gen
    else
      frequency
        [
          (2, text_gen);
          ( 3,
            tag_gen >>= fun tag ->
            list_size (0 -- 3) (pair (oneofl [ "x"; "y"; "id" ]) (string_size ~gen:printable (0 -- 6)))
            >>= fun raw_attrs ->
            let attrs = List.sort_uniq (fun (a, _) (b, _) -> compare a b) raw_attrs in
            list_size (0 -- 3) (node (depth - 1)) >>= fun children ->
            return (Xml.element tag ~attrs ~children) );
        ]
  in
  ignore attr_gen;
  QCheck.make
    ~print:(fun t -> Xml.to_string t)
    ( tag_gen >>= fun tag ->
      list_size (0 -- 4) (node 3) >>= fun children ->
      return (Xml.element tag ~children) )

let prop_print_parse_roundtrip =
  QCheck.Test.make ~name:"print/parse roundtrip (canonical)" ~count:200 gen_xml (fun doc ->
      let reparsed = Xml.of_string (Xml.to_string doc) in
      Xml.equal doc reparsed)

let prop_canonical_idempotent =
  QCheck.Test.make ~name:"canonical is idempotent" ~count:200 gen_xml (fun doc ->
      Xml.canonical (Xml.canonical doc) = Xml.canonical doc)

let prop_canonical_stable_string =
  QCheck.Test.make ~name:"canonical string parses to equal doc" ~count:200 gen_xml (fun doc ->
      Xml.equal doc (Xml.of_string (Xml.canonical_string doc)))

let prop_parser_total =
  (* Robustness: the parser never raises anything but Parse_error, i.e.
     of_string_opt is total over arbitrary bytes. *)
  QCheck.Test.make ~name:"parser is total on random bytes" ~count:1000 QCheck.string (fun s ->
      match Xml.of_string_opt s with
      | Some _ | None -> true)

let prop_parser_total_xmlish =
  (* The same, over strings biased towards XML-ish fragments. *)
  let fragment =
    QCheck.Gen.oneofl
      [ "<"; ">"; "/>"; "</a>"; "<a"; "a=\""; "\""; "&"; "&amp;"; "&#"; ";"; "<![CDATA["; "]]>";
        "<!--"; "-->"; "<?"; "?>"; "x"; " "; "<a>"; "<!DOCTYPE" ]
  in
  QCheck.Test.make ~name:"parser is total on XML-ish fragments" ~count:1000
    (QCheck.make
       ~print:(fun l -> String.concat "" l)
       QCheck.Gen.(list_size (0 -- 20) fragment))
    (fun frags ->
      match Xml.of_string_opt (String.concat "" frags) with
      | Some _ | None -> true)

(* --- differential tests against the reference parser ------------------ *)

(* What a parser makes of [src]: the exact tree (not its canonical form) or
   the exact error position and message. *)
let outcome parse src =
  match parse src with
  | t -> Ok t
  | exception Xml.Parse_error { line; column; message } -> Error (line, column, message)

let print_outcome = function
  | Ok t -> "tree " ^ Xml.to_string t
  | Error (line, column, message) -> Printf.sprintf "error %d:%d %s" line column message

let agrees src =
  let got = outcome Xml.of_string src and want = outcome Xml_reference.of_string src in
  got = want
  || QCheck.Test.fail_reportf "on %S@.scanner:   %s@.reference: %s" src (print_outcome got)
       (print_outcome want)

(* Real envelopes as the PEP/PDP exchange them: AuthzQuery requests and
   AuthzResponse answers, printed by the same code the wire path uses. *)
let envelopes =
  let query ~subject ~role ~resource ~action =
    Soap.to_string
      {
        Soap.headers = [];
        body =
          Wire.authz_query
            (Context.make
               ~subject:[ ("subject-id", Value.String subject); ("role", Value.String role) ]
               ~resource:[ ("resource-id", Value.String resource) ]
               ~action:[ ("action-id", Value.String action) ]
               ());
      }
  in
  let response ?epoch result = Soap.to_string { Soap.headers = []; body = Wire.authz_response ?epoch result } in
  [
    query ~subject:"alice" ~role:"doctor" ~resource:"records/42" ~action:"read";
    query ~subject:"u17" ~role:"a & b <c>" ~resource:"x'y\"z" ~action:"write";
    response ~epoch:3 Decision.permit;
    response (Decision.with_obligations Decision.deny [ Obligation.audit ]);
    response (Decision.indeterminate "overload: shed <queue full>");
  ]

(* Byte flips, truncations and insertions; inserted bytes lean towards the
   characters and constructs the scanner dispatches on. *)
let gen_mutated_envelope =
  let open QCheck.Gen in
  let insert_gen =
    oneof
      [
        map (String.make 1) char;
        oneofl
          [ "<"; ">"; "&"; ";"; "/"; "\""; "'"; "\n"; "</"; "<!--"; "-->"; "<![CDATA["; "]]>"; "<?";
            "?>"; "&amp;"; "&#x41;"; "&#"; "<!DOCTYPE"; "<a>"; " x=\"1\"" ];
      ]
  in
  let mutation =
    frequency
      [
        (3, map2 (fun pos byte s ->
                 let n = String.length s in
                 if n = 0 then s
                 else
                   let b = Bytes.of_string s in
                   Bytes.set b (pos mod n) (Char.chr byte);
                   Bytes.to_string b) nat (int_bound 255));
        (1, map (fun pos s -> String.sub s 0 (pos mod (String.length s + 1))) nat);
        (3, map2 (fun pos ins s ->
                 let pos = pos mod (String.length s + 1) in
                 String.sub s 0 pos ^ ins ^ String.sub s pos (String.length s - pos)) nat insert_gen);
      ]
  in
  oneofl envelopes >>= fun env ->
  list_size (0 -- 4) mutation >>= fun ops -> return (List.fold_left (fun s f -> f s) env ops)

let prop_differential_generated =
  QCheck.Test.make ~name:"scanner = reference on generated documents (compact and pretty)" ~count:500
    gen_xml (fun doc -> agrees (Xml.to_string doc) && agrees (Xml.to_pretty_string doc))

let prop_differential_envelopes =
  QCheck.Test.make ~name:"scanner = reference on mutated SOAP envelopes" ~count:2000
    (QCheck.make ~print:(Printf.sprintf "%S") gen_mutated_envelope)
    agrees

let prop_differential_fragments =
  let fragment =
    QCheck.Gen.oneofl
      [ "<"; ">"; "/>"; "</a>"; "<a"; "a=\""; "\""; "&"; "&amp;"; "&#"; "x41"; ";"; "<![CDATA["; "]]>";
        "<!--"; "-->"; "<?"; "?>"; "x"; " "; "\n"; "<a>"; "<b/>"; "<!DOCTYPE" ]
  in
  QCheck.Test.make ~name:"scanner = reference on XML-ish fragments" ~count:2000
    (QCheck.make ~print:(fun l -> String.concat "" l) QCheck.Gen.(list_size (0 -- 20) fragment))
    (fun frags -> agrees (String.concat "" frags))

(* A comment, a CDATA section and an entity inside one run of character
   data leave a single Text node, split only by child elements. *)
let test_split_text_merges () =
  let src = "<a>x<!--c-->y<![CDATA[<z>]]>&amp;w<?pi?>v<b/>p&lt;<!---->q</a>" in
  let want =
    Xml.element "a"
      ~children:[ Xml.text "xy<z>&wv"; Xml.element "b"; Xml.text "p<q" ]
  in
  check bool_ "scanner tree" true (Xml.of_string src = want);
  check bool_ "reference tree" true (Xml_reference.of_string src = want)

(* Wire bytes of the two hot envelopes: message sizes are a paper metric,
   so no printer change may move them. *)
let test_golden_envelopes () =
  let ctx =
    Context.make
      ~subject:[ ("subject-id", Value.String "alice"); ("role", Value.String "doctor & \"lead\"") ]
      ~resource:[ ("resource-id", Value.String "records/<42>") ]
      ~action:[ ("action-id", Value.String "read") ]
      ()
  in
  check string_ "AuthzQuery"
    "<soap:Envelope xmlns:soap=\"http://www.w3.org/2003/05/soap-envelope\"><soap:Body><AuthzQuery><Request><Subject><Attribute AttributeId=\"role\" DataType=\"string\">doctor &amp; &quot;lead&quot;</Attribute><Attribute AttributeId=\"subject-id\" DataType=\"string\">alice</Attribute></Subject><Resource><Attribute AttributeId=\"resource-id\" DataType=\"string\">records/&lt;42&gt;</Attribute></Resource><Action><Attribute AttributeId=\"action-id\" DataType=\"string\">read</Attribute></Action><Environment/></Request></AuthzQuery></soap:Body></soap:Envelope>"
    (Soap.to_string { Soap.headers = []; body = Wire.authz_query ctx });
  check string_ "AuthzResponse"
    "<soap:Envelope xmlns:soap=\"http://www.w3.org/2003/05/soap-envelope\"><soap:Body><AuthzResponse Epoch=\"7\"><Response><Result><Decision>Permit</Decision><Obligations><Obligation ObligationId=\"urn:dacs:obligation:audit\" FulfillOn=\"Permit\"/></Obligations></Result></Response></AuthzResponse></soap:Body></soap:Envelope>"
    (Soap.to_string
       {
         Soap.headers = [];
         body = Wire.authz_response ~epoch:7 (Decision.with_obligations Decision.permit [ Obligation.audit ]);
       })

let props = List.map QCheck_alcotest.to_alcotest
  [ prop_print_parse_roundtrip; prop_canonical_idempotent; prop_canonical_stable_string;
    prop_parser_total; prop_parser_total_xmlish; prop_differential_generated;
    prop_differential_envelopes; prop_differential_fragments ]

let suite =
  [
    Alcotest.test_case "element basics" `Quick test_element_basics;
    Alcotest.test_case "local name / prefix" `Quick test_local_name_prefix;
    Alcotest.test_case "set_attr" `Quick test_set_attr;
    Alcotest.test_case "find_children" `Quick test_find_children;
    Alcotest.test_case "escape" `Quick test_escape;
    Alcotest.test_case "escape roundtrip" `Quick test_escape_roundtrip_via_parse;
    Alcotest.test_case "parse simple" `Quick test_parse_simple;
    Alcotest.test_case "parse prolog/doctype/comments" `Quick test_parse_prolog_doctype_comments;
    Alcotest.test_case "parse CDATA" `Quick test_parse_cdata;
    Alcotest.test_case "parse entities" `Quick test_parse_entities;
    Alcotest.test_case "numeric refs to UTF-8" `Quick test_parse_numeric_utf8;
    Alcotest.test_case "parse errors" `Quick test_parse_errors;
    Alcotest.test_case "error position" `Quick test_parse_error_position;
    Alcotest.test_case "mismatched tag message" `Quick test_mismatched_tag_message;
    Alcotest.test_case "canonical sorts attributes" `Quick test_canonical_sorts_attrs;
    Alcotest.test_case "canonical drops blank text" `Quick test_canonical_drops_blank_text;
    Alcotest.test_case "canonical merges text" `Quick test_canonical_merges_text;
    Alcotest.test_case "canonical idempotent" `Quick test_canonical_idempotent;
    Alcotest.test_case "equality modulo whitespace" `Quick test_equal_modulo_whitespace;
    Alcotest.test_case "size and depth" `Quick test_size_depth;
    Alcotest.test_case "pretty print parses back" `Quick test_pretty_parses_back;
    Alcotest.test_case "path select" `Quick test_path_select;
    Alcotest.test_case "path attribute predicate" `Quick test_path_attr_pred;
    Alcotest.test_case "path quoted predicate" `Quick test_path_quoted_pred;
    Alcotest.test_case "path index" `Quick test_path_index;
    Alcotest.test_case "path text" `Quick test_path_text;
    Alcotest.test_case "path exists" `Quick test_path_exists;
    Alcotest.test_case "path errors" `Quick test_path_errors;
    Alcotest.test_case "split text run merges" `Quick test_split_text_merges;
    Alcotest.test_case "golden envelope bytes" `Quick test_golden_envelopes;
  ]
  @ props

let () = Alcotest.run "dacs_xml" [ ("xml", suite) ]
