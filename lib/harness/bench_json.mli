(** JSON string escaping for the benchmark's result files; an alias of
    {!Wlan_obs.Report.escape}. *)

val escape : string -> string
