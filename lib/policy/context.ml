module Xml = Dacs_xml.Xml

type category = Subject | Resource | Action | Environment

let category_name = function
  | Subject -> "Subject"
  | Resource -> "Resource"
  | Action -> "Action"
  | Environment -> "Environment"

let category_of_name = function
  | "Subject" -> Some Subject
  | "Resource" -> Some Resource
  | "Action" -> Some Action
  | "Environment" -> Some Environment
  | _ -> None

let all_categories = [ Subject; Resource; Action; Environment ]

module Key = struct
  type t = category * string

  let compare = compare
end

module Attr_map = Map.Make (Key)

type t = Value.bag Attr_map.t

let empty = Attr_map.empty

let add_bag t category id values =
  let prev = Option.value (Attr_map.find_opt (category, id) t) ~default:[] in
  Attr_map.add (category, id) (prev @ values) t

let add t category id value = add_bag t category id [ value ]

let bag t category id = Option.value (Attr_map.find_opt (category, id) t) ~default:[]

let attributes t category =
  Attr_map.fold
    (fun (cat, id) values acc -> if cat = category then (id, values) :: acc else acc)
    t []
  |> List.sort compare

let iter t f = Attr_map.iter (fun (cat, id) values -> f cat id values) t

let merge a b = Attr_map.fold (fun (cat, id) values acc -> add_bag acc cat id values) b a

let make ?(subject = []) ?(resource = []) ?(action = []) ?(environment = []) () =
  let add_all cat t pairs = List.fold_left (fun t (id, v) -> add t cat id v) t pairs in
  empty
  |> fun t -> add_all Subject t subject
  |> fun t -> add_all Resource t resource
  |> fun t -> add_all Action t action
  |> fun t -> add_all Environment t environment

let first_string t category id =
  match bag t category id with
  | Value.String s :: _ -> Some s
  | Value.Uri s :: _ -> Some s
  | _ -> None

let subject_id t = first_string t Subject "subject-id"
let resource_id t = first_string t Resource "resource-id"
let action_id t = first_string t Action "action-id"

let to_xml t =
  let section category =
    let attrs = attributes t category in
    Xml.element (category_name category)
      ~children:
        (List.concat_map
           (fun (id, values) ->
             List.map
               (fun v ->
                 Xml.element "Attribute"
                   ~attrs:
                     [
                       ("AttributeId", id);
                       ("DataType", Value.type_name (Value.type_of v));
                     ]
                   ~children:[ Xml.text (Value.to_string v) ])
               values)
           attrs)
  in
  Xml.element "Request" ~children:(List.map section all_categories)

let of_xml node =
  if Xml.tag node <> "Request" then Error "expected a Request element"
  else begin
    let result = ref empty in
    let error = ref None in
    let attribute category = function
      | Xml.Element { tag; attrs; _ } as attr_node when Xml.local_name tag = "Attribute" -> (
        match (List.assoc_opt "AttributeId" attrs, List.assoc_opt "DataType" attrs) with
        | Some id, Some dt_name -> (
          match Value.data_type_of_name dt_name with
          | None -> error := Some (Printf.sprintf "unknown data type %s" dt_name)
          | Some dt -> (
            match Value.of_string dt (Xml.text_content attr_node) with
            | Ok v -> result := add !result category id v
            | Error e -> error := Some e))
        | _ -> error := Some "Attribute needs AttributeId and DataType")
      | _ -> ()
    in
    List.iter
      (function
        | Xml.Text _ -> ()
        | Xml.Element section -> (
          match category_of_name (Xml.local_name section.tag) with
          | None -> error := Some (Printf.sprintf "unknown category element %s" section.tag)
          | Some category -> List.iter (attribute category) section.children))
      (Xml.children node);
    match !error with Some e -> Error e | None -> Ok !result
  end

let equal a b = Attr_map.equal Value.bag_equal a b

let pp fmt t =
  List.iter
    (fun category ->
      List.iter
        (fun (id, values) ->
          Format.fprintf fmt "%s/%s=%a@ " (category_name category) id Value.pp_bag values)
        (attributes t category))
    all_categories
