(** XML document model for the DACS libraries.

    A deliberately small XML 1.0 subset: elements, attributes, character
    data, comments and CDATA on input (both normalised away), the five
    predefined entities and numeric character references.  This is the
    carrier for XACML policies, SAML assertions and SOAP envelopes, so it
    favours a predictable canonical form over full spec coverage. *)

type t =
  | Element of element
  | Text of string

and element = {
  tag : string;  (** possibly prefixed, e.g. ["xacml:Policy"] *)
  attrs : (string * string) list;
  children : t list;
}

(** {1 Construction} *)

val element : ?attrs:(string * string) list -> ?children:t list -> string -> t
(** [element tag] builds an element node. *)

val text : string -> t

val cdata_text : string -> t
(** Same as {!text}; CDATA sections are represented as plain text. *)

(** {1 Accessors} *)

val tag : t -> string
(** [tag node] is the element tag, or [""] for text nodes. *)

val local_name : string -> string
(** [local_name "saml:Assertion"] is ["Assertion"]. *)

val prefix : string -> string option
(** [prefix "saml:Assertion"] is [Some "saml"]. *)

val attr : t -> string -> string option
(** [attr node name] is the value of attribute [name], if present. *)

val attr_exn : t -> string -> string
(** @raise Not_found when the attribute is missing or [node] is text. *)

val set_attr : t -> string -> string -> t
(** Functional attribute update (replaces an existing binding). *)

val children : t -> t list

val child_elements : t -> element list

val find_child : t -> string -> t option
(** First child element whose local name matches. *)

val find_children : t -> string -> t list
(** All child elements whose local name matches, in document order. *)

val text_content : t -> string
(** Concatenation of all text descendants. *)

val is_element : t -> bool

(** {1 Printing} *)

val to_string : t -> string
(** Compact single-line serialisation. *)

val to_pretty_string : t -> string
(** Serialisation indented two spaces per level, for human consumption. *)

val canonical : t -> t
(** Canonical form: attributes sorted by name, whitespace-only text dropped,
    adjacent text merged, comments already absent.  [canonical] is
    idempotent and two semantically equal documents share one canonical
    serialisation — the form that signatures are computed over. *)

val canonical_string : t -> string
(** [to_string (canonical t)]. *)

val escape : string -> string
(** Escape the five XML-special characters for use in attribute values
    and character data.  The printers escape the same way, appending a
    string that holds none of them without copying it first. *)

(** {1 Parsing} *)

exception Parse_error of { line : int; column : int; message : string }

val of_string : string -> t
(** Parse a complete document (prolog and doctype are skipped) in one pass
    over the string.  Character data between two element boundaries is one
    [Text] node, even when comments, CDATA sections, processing
    instructions or entity references split it in the source.
    @raise Parse_error on malformed input, with the 1-based line and column
    of the offending position. *)

val of_string_opt : string -> t option

val parse_error_to_string : exn -> string option
(** Human-readable rendering of {!Parse_error}; [None] on other exceptions. *)

(** {1 Comparison} *)

val equal : t -> t -> bool
(** Structural equality on canonical forms. *)

val size : t -> int
(** Number of nodes (elements plus text nodes). *)

val depth : t -> int
(** Longest element nesting chain; a leaf element has depth 1. *)
