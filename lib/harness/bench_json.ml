let escape = Wlan_obs.Report.escape
