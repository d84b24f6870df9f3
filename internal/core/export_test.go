package core

// CodesOut gives the external tests codesOut, the modelio v5 layout.
var CodesOut = codesOut
