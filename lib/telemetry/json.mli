(** JSON string literals: the one escaper every JSON emitter uses. *)

val quote : string -> string
(** [quote s] is [s] as a quoted JSON string.  Quote and backslash are
    escaped, control characters become [\n], [\r], [\t] or [\u00XX], and
    every other byte passes through unchanged, so UTF-8 text stays UTF-8. *)
