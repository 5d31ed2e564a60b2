let only_included = 1
