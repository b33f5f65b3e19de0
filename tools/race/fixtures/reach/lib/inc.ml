let included = 4
