let y_only = 8
